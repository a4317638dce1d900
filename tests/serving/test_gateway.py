"""Gateway routing + middleware tests, driven without a socket.

:class:`ServingGateway` is transport-independent: these tests hand it
:class:`Request` objects directly and pin the middleware semantics —
request ids, access-log records, error envelopes, body/batch limits and
the soft timeout — deterministically on a :class:`VirtualClock`.
"""

import json

import numpy as np
import pytest

from repro.platforms import BigML
from repro.platforms.base import JobState
from repro.service.clock import VirtualClock
from repro.serving import (
    AccessLog,
    Request,
    ServingGateway,
    ServingLimits,
    encode_array,
)

RNG = np.random.default_rng(11)
X = RNG.standard_normal((24, 4))
Y = (X[:, 0] > 0).astype(int)


def make_gateway(**kwargs):
    kwargs.setdefault("clock", VirtualClock())
    return ServingGateway([BigML(random_state=0)], **kwargs)


def post(path, payload, headers=None):
    raw = json.dumps(payload).encode("utf-8") if payload is not None else b""
    return Request(method="POST", path=path, raw_body=raw,
                   headers=dict(headers or {}))


def get(path, headers=None):
    return Request(method="GET", path=path, headers=dict(headers or {}))


def upload_payload():
    return {"X": encode_array(X), "y": encode_array(Y), "name": "t"}


def test_health_lists_platforms_and_uptime_on_the_gateway_clock():
    clock = VirtualClock()
    gateway = make_gateway(clock=clock)
    clock.advance(12.5)
    response = gateway.handle(get("/health"))
    assert response.status == 200
    assert response.body["status"] == "ok"
    assert response.body["platforms"] == ["bigml"]
    assert response.body["uptime_seconds"] == pytest.approx(12.5)


def test_full_train_predict_cycle_through_the_gateway():
    gateway = make_gateway()
    uploaded = gateway.handle(post("/platforms/bigml/datasets",
                                   upload_payload()))
    assert uploaded.status == 200
    dataset_id = uploaded.body["dataset_id"]
    created = gateway.handle(post("/platforms/bigml/models",
                                  {"dataset_id": dataset_id,
                                   "classifier": "DT"}))
    model_id = created.body["model_id"]
    fetched = gateway.handle(get(f"/platforms/bigml/models/{model_id}"))
    assert fetched.body["state"] == JobState.COMPLETED.value
    predicted = gateway.handle(post(
        f"/platforms/bigml/models/{model_id}/predict",
        {"X": encode_array(X[:5])},
    ))
    assert predicted.status == 200
    assert len(predicted.body["predictions"]["data"]) == 5
    deleted = gateway.handle(Request(
        method="DELETE", path=f"/platforms/bigml/datasets/{dataset_id}"))
    assert deleted.status == 200
    assert gateway.handle(get("/platforms/bigml/datasets")).body == {
        "datasets": []
    }


@pytest.mark.parametrize("method,path", [
    ("GET", "/nope"),
    ("GET", "/platforms/quantum/datasets"),
    ("POST", "/platforms/bigml/teapots"),
    ("DELETE", "/platforms/bigml/models"),
])
def test_unknown_routes_answer_404_envelopes(method, path):
    gateway = make_gateway()
    response = gateway.handle(Request(method=method, path=path))
    assert response.status == 404
    assert response.body["error"]["kind"] == "ResourceNotFoundError"


def test_malformed_json_body_is_a_structured_400():
    gateway = make_gateway()
    request = Request(method="POST", path="/platforms/bigml/datasets",
                      raw_body=b"{truncated")
    response = gateway.handle(request)
    assert response.status == 400
    assert response.body["error"]["kind"] == "ValidationError"
    assert "JSON" in response.body["error"]["detail"]


def test_malformed_arrays_are_rejected_at_the_edge_not_inside_numpy():
    gateway = make_gateway()
    # Ragged rows: decodable JSON, undecodable array.
    response = gateway.handle(post("/platforms/bigml/datasets", {
        "X": {"data": [[1.0, 2.0], [3.0]]}, "y": {"data": [0, 1]},
    }))
    assert response.status == 400
    assert response.body["error"]["kind"] == "ValidationError"
    # Mismatched lengths: caught by check_X_y at the boundary.
    response = gateway.handle(post("/platforms/bigml/datasets", {
        "X": encode_array(X), "y": encode_array(Y[:-3]),
    }))
    assert response.status == 400


def test_wrong_width_predict_answers_400_for_a_linear_model():
    gateway = make_gateway()
    dataset_id = gateway.handle(post("/platforms/bigml/datasets",
                                     upload_payload())).body["dataset_id"]
    model_id = gateway.handle(post("/platforms/bigml/models",
                                   {"dataset_id": dataset_id,
                                    "classifier": "LR"})).body["model_id"]
    response = gateway.handle(post(
        f"/platforms/bigml/models/{model_id}/predict",
        {"X": encode_array(X[:5, :2])},
    ))
    assert response.status == 400
    assert response.body["error"]["kind"] == "ValidationError"


def test_oversized_batch_answers_413():
    gateway = make_gateway(limits=ServingLimits(max_batch_rows=10))
    response = gateway.handle(post("/platforms/bigml/datasets",
                                   upload_payload()))
    assert response.status == 413
    assert response.body["error"]["kind"] == "PayloadTooLargeError"
    assert "10-row limit" in response.body["error"]["detail"]


def test_oversized_body_answers_413_before_routing():
    gateway = make_gateway(limits=ServingLimits(max_body_bytes=64))
    response = gateway.handle(post("/platforms/bigml/datasets",
                                   upload_payload()))
    assert response.status == 413
    assert response.body["error"]["kind"] == "PayloadTooLargeError"
    # Declared-but-unread bodies (the HTTP front-end refuses to read
    # them) are judged on the Content-Length header alone.
    declared = Request(method="POST", path="/platforms/bigml/datasets",
                       headers={"Content-Length": "9999"})
    assert gateway.handle(declared).status == 413


def test_request_ids_are_sequential_and_echoed():
    gateway = make_gateway()
    first = gateway.handle(get("/health"))
    second = gateway.handle(get("/health"))
    assert first.headers["X-Repro-Request-Id"] == "req-000001"
    assert second.headers["X-Repro-Request-Id"] == "req-000002"


def test_client_supplied_request_id_propagates_to_log_and_errors():
    log = AccessLog()
    gateway = make_gateway(access_log=log)
    response = gateway.handle(get(
        "/platforms/quantum/datasets",
        headers={"X-Repro-Request-Id": "trace-me-42"},
    ))
    assert response.status == 404
    assert response.headers["X-Repro-Request-Id"] == "trace-me-42"
    assert response.body["error"]["request_id"] == "trace-me-42"
    entry = log.records()[-1]
    assert entry["request_id"] == "trace-me-42"
    assert entry["status"] == 404
    assert entry["path"] == "/platforms/quantum/datasets"


def test_access_log_times_requests_on_the_gateway_clock(tmp_path):
    clock = VirtualClock()
    log_path = tmp_path / "access.jsonl"
    gateway = make_gateway(clock=clock, access_log=AccessLog(log_path))
    gateway.handle(get("/health"))
    lines = log_path.read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["method"] == "GET"
    assert entry["elapsed_seconds"] == 0.0  # nothing slept on VirtualClock


class _SlowPlatform:
    """Stub platform whose one operation burns virtual time."""

    name = "slowpoke"

    def __init__(self, clock, delay):
        self.clock = clock
        self.delay = delay

    def list_datasets(self):
        self.clock.sleep(self.delay)
        return ["d-1"]


def test_soft_timeout_answers_504_when_handling_runs_long():
    clock = VirtualClock()
    gateway = ServingGateway(
        [_SlowPlatform(clock, delay=5.0)],
        limits=ServingLimits(soft_timeout_seconds=1.0), clock=clock,
    )
    response = gateway.handle(get("/platforms/slowpoke/datasets"))
    assert response.status == 504
    assert response.body["error"]["kind"] == "DeadlineExceededError"
    assert "soft timeout" in response.body["error"]["detail"]


def test_soft_timeout_disabled_lets_slow_requests_through():
    clock = VirtualClock()
    gateway = ServingGateway(
        [_SlowPlatform(clock, delay=5.0)],
        limits=ServingLimits(soft_timeout_seconds=None), clock=clock,
    )
    response = gateway.handle(get("/platforms/slowpoke/datasets"))
    assert response.status == 200
    assert response.body == {"datasets": ["d-1"]}


def test_metrics_summary_reports_exact_percentiles_per_operation():
    clock = VirtualClock()
    gateway = ServingGateway([_SlowPlatform(clock, delay=2.0)], clock=clock)
    for _ in range(4):
        gateway.handle(get("/platforms/slowpoke/datasets"))
    body = gateway.handle(get("/metrics/summary")).body
    summary = body["operations"]["latency_samples.list_datasets"]
    assert summary["count"] == 4
    assert summary["p50"] == pytest.approx(2.0)
    assert summary["p95"] == pytest.approx(2.0)
    assert summary["p99"] == pytest.approx(2.0)
    assert body["counters"]["requests_total"] == 4


def test_errors_are_counted_in_telemetry():
    gateway = make_gateway()
    gateway.handle(get("/platforms/bigml/models/m-missing"))
    body = gateway.handle(get("/metrics/summary")).body
    assert body["platforms"]["bigml"]["errors"] == {
        "ResourceNotFoundError": 1
    }
