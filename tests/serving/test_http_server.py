"""Wire-level tests against a live loopback HTTP server.

Everything here goes through a real socket: the stdlib front-end's
header handling, keep-alive behaviour, the 413 refuse-before-read path,
request-id propagation from client header to access log, and the
``--max-requests`` budget shutdown.
"""

import http.client
import json

import numpy as np
import pytest

from repro.exceptions import (
    PayloadTooLargeError,
    ResourceNotFoundError,
    ValidationError,
)
from repro.platforms import BigML
from repro.serving import (
    AccessLog,
    HTTPPlatformClient,
    PlatformHTTPServer,
    ServingGateway,
    ServingLimits,
    serve_background,
)

RNG = np.random.default_rng(5)
X = RNG.standard_normal((30, 4))
Y = (X[:, 0] > 0).astype(int)


@pytest.fixture()
def make_client():
    """Build HTTP clients that are all closed when the test ends."""
    clients = []

    def build(url, platform="bigml", **kwargs):
        client = HTTPPlatformClient(url, platform, **kwargs)
        clients.append(client)
        return client

    yield build
    for client in clients:
        client.close()


@pytest.fixture()
def loopback():
    gateway = ServingGateway([BigML(random_state=0)])
    server, thread = serve_background(gateway)
    yield server, gateway
    server.shutdown()
    thread.join()
    server.server_close()


def test_health_and_platform_listing_over_the_wire(loopback, make_client):
    server, _ = loopback
    client = make_client(server.url)
    health = client.health()
    assert health["status"] == "ok"
    assert health["platforms"] == ["bigml"]
    connection = http.client.HTTPConnection(
        server.server_address[0], server.server_address[1], timeout=10
    )
    connection.request("GET", "/platforms")
    body = json.loads(connection.getresponse().read())
    assert body["platforms"][0]["name"] == "bigml"
    assert "CLF" in body["platforms"][0]["controls"]
    connection.close()


def test_full_cycle_and_error_tunnelling_over_the_wire(loopback,
                                                      make_client):
    server, _ = loopback
    client = make_client(server.url)
    dataset_id = client.upload_dataset(X, Y, name="wire")
    model_id = client.create_model(dataset_id, classifier="DT")
    handle = client.get_model(model_id)
    assert handle.state.value == "COMPLETED"
    predictions = client.batch_predict(model_id, X[:6])
    assert predictions.shape == (6,)
    client.delete_dataset(dataset_id)
    with pytest.raises(ResourceNotFoundError):
        client.delete_dataset(dataset_id)
    with pytest.raises(ResourceNotFoundError):
        client.get_model("m-nope")


def test_malformed_json_is_a_structured_400_over_the_wire(loopback):
    server, _ = loopback
    connection = http.client.HTTPConnection(
        server.server_address[0], server.server_address[1], timeout=10
    )
    connection.request("POST", "/platforms/bigml/datasets",
                       body=b"}{ not json",
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    body = json.loads(response.read())
    assert response.status == 400
    assert body["error"]["kind"] == "ValidationError"
    connection.close()


def test_client_raises_validation_error_for_bad_targets():
    with pytest.raises(ValidationError):
        HTTPPlatformClient("ftp://example", "bigml")
    with pytest.raises(ValidationError):
        HTTPPlatformClient("http://127.0.0.1:1", "quantum-ml")


def test_oversized_declared_body_is_refused_without_reading(make_client):
    gateway = ServingGateway(
        [BigML(random_state=0)], limits=ServingLimits(max_body_bytes=1024)
    )
    server, thread = serve_background(gateway)
    try:
        client = make_client(server.url)
        with pytest.raises(PayloadTooLargeError):
            client.upload_dataset(
                RNG.standard_normal((400, 10)),
                np.arange(400) % 2,
            )
        # The connection was closed by the server; the client's single
        # reconnect makes the next request succeed anyway.
        assert client.health()["status"] == "ok"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_request_ids_propagate_from_client_to_access_log(tmp_path,
                                                         make_client):
    log_path = tmp_path / "access.jsonl"
    gateway = ServingGateway(
        [BigML(random_state=0)], access_log=AccessLog(log_path)
    )
    server, thread = serve_background(gateway)
    try:
        client = make_client(server.url, client_id="traced")
        dataset_id = client.upload_dataset(X, Y)
        client.delete_dataset(dataset_id)
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    entries = [json.loads(line)
               for line in log_path.read_text().splitlines()]
    assert [entry["request_id"] for entry in entries] == [
        "traced-bigml-000001", "traced-bigml-000002",
    ]
    assert [entry["status"] for entry in entries] == [200, 200]
    assert entries[0]["path"] == "/platforms/bigml/datasets"


def test_max_requests_budget_shuts_the_server_down(make_client):
    gateway = ServingGateway([BigML(random_state=0)])
    server = PlatformHTTPServer(gateway, max_requests=3)
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = make_client(server.url)
    for _ in range(3):
        assert client.health()["status"] == "ok"
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()
