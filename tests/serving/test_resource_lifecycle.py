"""Loopback regression for W503's dynamic counterpart: no leaked
threads, sockets or file descriptors after a serving session.

The wire analyzer proves the lifecycle statically; these tests prove it
dynamically on a real socket — after an exception-path request (the
kind that used to bypass cleanup) and after a ``--max-requests``
budget shutdown, the process is back to its baseline thread count and
``/proc/self/fd`` population.
"""

import os
import time

import pytest

from repro.exceptions import ResourceNotFoundError
from repro.platforms import BigML
from repro.serving import (
    HTTPPlatformClient,
    PlatformHTTPServer,
    ServingGateway,
    serve_background,
)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def live_threads():
    import threading

    return threading.active_count()


def settle(predicate, timeout=10.0):
    """Poll ``predicate`` until true; daemon handler threads need a beat."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs procfs to count descriptors")
def test_exception_path_request_leaks_nothing():
    fd_baseline = open_fds()
    thread_baseline = live_threads()

    server, thread = serve_background(ServingGateway([BigML(random_state=0)]))
    client = HTTPPlatformClient(server.url, "bigml")
    assert client.health()["status"] == "ok"
    with pytest.raises(ResourceNotFoundError):
        client.get_model("m-nope")  # the 404 path must not skip cleanup
    client.close()

    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()

    assert settle(lambda: live_threads() <= thread_baseline), \
        f"{live_threads() - thread_baseline} serving thread(s) leaked"
    assert settle(lambda: open_fds() <= fd_baseline), \
        f"{open_fds() - fd_baseline} descriptor(s) leaked"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs procfs to count descriptors")
def test_request_budget_shutdown_leaks_nothing():
    import threading

    fd_baseline = open_fds()
    thread_baseline = live_threads()

    gateway = ServingGateway([BigML(random_state=0)])
    server = PlatformHTTPServer(gateway, max_requests=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = HTTPPlatformClient(server.url, "bigml")
    assert client.health()["status"] == "ok"
    assert client.health()["status"] == "ok"
    client.close()

    # The budget exhausts on the second request and the handler stops
    # the serve loop itself; joining must not hang.
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()

    assert settle(lambda: live_threads() <= thread_baseline), \
        f"{live_threads() - thread_baseline} serving thread(s) leaked"
    assert settle(lambda: open_fds() <= fd_baseline), \
        f"{open_fds() - fd_baseline} descriptor(s) leaked"
