"""Wire structure of the served responses, asserted without timings.

Every response must leave the server in exactly one send on a socket
with ``TCP_NODELAY`` set, and the client's socket must carry the same
option on every (re)connect.  A response split over two sends lets
Nagle's algorithm hold the second part until the peer's delayed ACK
arrives — a ~40 ms stall per reply that no timing threshold catches
reliably, but a count of sends does.
"""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.exceptions import PayloadTooLargeError
from repro.platforms import BigML
from repro.serving import (
    HTTPPlatformClient,
    PlatformHTTPServer,
    ServingGateway,
    ServingLimits,
    encode_array,
)

RNG = np.random.default_rng(23)
X = RNG.standard_normal((30, 4))
Y = (X[:, 0] > 0).astype(int)
LIMITS = ServingLimits(max_body_bytes=20_000, max_batch_rows=len(X))


class _CountingSocket:
    """Accepted-socket proxy that counts every send made through it."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = 0

    def sendall(self, data, *args):
        self.sends += 1
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.sends += 1
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingServer(PlatformHTTPServer):
    """Gateway server whose accepted sockets are counting proxies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.accepted = []

    def get_request(self):
        sock, address = super().get_request()
        wrapped = _CountingSocket(sock)
        self.accepted.append(wrapped)
        return wrapped, address


@pytest.fixture()
def counting_server():
    server = _CountingServer(
        ServingGateway([BigML(random_state=0)], limits=LIMITS)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def _connect(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def _exchange(server, connection, method, path, payload=None, raw=None):
    """One request/response; returns (status, body, sends for the reply)."""
    body = raw if raw is not None else (
        json.dumps(payload).encode("utf-8") if payload is not None else None
    )
    before = server.accepted[-1].sends if server.accepted else 0
    connection.request(method, path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    document = json.loads(response.read() or b"{}")
    return response.status, document, server.accepted[-1].sends - before


def _nodelay(sock) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_every_route_and_error_envelope_is_one_send(counting_server):
    server = counting_server
    connection = _connect(server)
    try:
        status, body, sends = _exchange(
            server, connection, "POST", "/platforms/bigml/datasets",
            {"X": encode_array(X), "y": encode_array(Y), "name": "wire"},
        )
        assert (status, sends) == (200, 1)
        dataset_id = body["dataset_id"]
        status, body, sends = _exchange(
            server, connection, "POST", "/platforms/bigml/models",
            {"dataset_id": dataset_id, "classifier": "DT"},
        )
        assert (status, sends) == (200, 1)
        model_id = body["model_id"]
        models = f"/platforms/bigml/models/{model_id}"
        exchanges = [
            ("GET", "/health", None, 200),
            ("GET", "/metrics/summary", None, 200),
            ("GET", "/platforms", None, 200),
            ("GET", "/platforms/bigml/datasets", None, 200),
            ("GET", "/platforms/bigml/models", None, 200),
            ("GET", models, None, 200),
            ("POST", f"{models}/await", None, 200),
            ("POST", f"{models}/predict", {"X": encode_array(X[:5])}, 200),
            # Error envelopes, each from a different layer of the stack.
            ("GET", "/nowhere", None, 404),
            ("GET", "/platforms/bigml/models/m-nope", None, 404),
            ("POST", "/platforms/bigml/models",
             {"dataset_id": dataset_id, "classifier": "quantum"}, 400),
            ("POST", f"{models}/predict",
             {"X": encode_array(np.vstack([X, X]))}, 413),
            ("POST", f"{models}/predict", {"X": "not-an-array"}, 400),
            ("DELETE", f"/platforms/bigml/datasets/{dataset_id}", None, 200),
            ("DELETE", f"/platforms/bigml/datasets/{dataset_id}", None, 404),
        ]
        for method, path, payload, expected in exchanges:
            status, _, sends = _exchange(server, connection, method, path,
                                         payload)
            assert (status, sends) == (expected, 1), (method, path)
        status, body, sends = _exchange(
            server, connection, "POST", "/platforms/bigml/datasets",
            raw=b"}{ not json",
        )
        assert (status, body["error"]["kind"], sends) == \
            (400, "ValidationError", 1)
        # One keep-alive connection carried the whole exchange.
        assert len(server.accepted) == 1
    finally:
        connection.close()


def test_oversized_declared_body_refusal_is_one_send(counting_server):
    server = counting_server
    connection = _connect(server)
    try:
        connection.putrequest("POST", "/platforms/bigml/datasets")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length",
                             str(LIMITS.max_body_bytes + 1))
        connection.endheaders()  # the body is never sent nor read
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 413
        assert body["error"]["kind"] == "PayloadTooLargeError"
        assert server.accepted[-1].sends == 1
    finally:
        connection.close()


def test_stdlib_error_pages_are_one_send(counting_server):
    server = counting_server
    connection = _connect(server)
    try:
        connection.request("PUT", "/health")
        response = connection.getresponse()
        response.read()
        assert response.status == 501
        assert server.accepted[-1].sends == 1
    finally:
        connection.close()


def test_expect_continue_gets_its_interim_reply_before_the_body(
        counting_server):
    server = counting_server
    payload = json.dumps({"X": encode_array(X), "y": encode_array(Y)})
    raw = payload.encode("utf-8")
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            b"POST /platforms/bigml/datasets HTTP/1.1\r\n"
            b"Host: loopback\r\nContent-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: " + str(len(raw)).encode() + b"\r\n\r\n"
        )
        interim = b""
        while b"\r\n\r\n" not in interim:
            chunk = sock.recv(4096)
            assert chunk, "server closed before answering 100 Continue"
            interim += chunk
        assert interim.startswith(b"HTTP/1.1 100")
        sock.sendall(raw)
        final = b""
        while b'"dataset_id"' not in final:
            chunk = sock.recv(4096)
            assert chunk, "server closed before the final reply"
            final += chunk
        assert final.startswith(b"HTTP/1.1 200")
    # The interim reply and the final reply: one send each.
    assert server.accepted[-1].sends == 2


def test_tcp_nodelay_on_the_accepted_and_the_client_socket(counting_server):
    server = counting_server
    client = HTTPPlatformClient(server.url, "bigml")
    try:
        assert client.health()["status"] == "ok"
        assert _nodelay(server.accepted[-1])
        first = client._connection.sock
        assert _nodelay(first)
        # A client-side reconnect sets the option on the new socket too.
        client.close()
        assert client.health()["status"] == "ok"
        second = client._connection.sock
        assert second is not first
        assert _nodelay(second)
        assert _nodelay(server.accepted[-1])
        # So does the reconnect after the server closed the connection
        # (its refusal of an oversized declared body).
        with pytest.raises(PayloadTooLargeError):
            client.upload_dataset(RNG.standard_normal((400, 10)),
                                  np.arange(400) % 2)
        assert client.health()["status"] == "ok"
        third = client._connection.sock
        assert third is not second
        assert _nodelay(third)
        assert _nodelay(server.accepted[-1])
    finally:
        client.close()
