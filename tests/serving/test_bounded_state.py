"""A long-running gateway keeps bounded state, proven by counts.

Hundreds of full sessions (upload -> train -> poll -> predicts ->
delete) run through one :class:`ServingGateway` on a
:class:`VirtualClock`.  Afterwards the server holds no models of
deleted datasets, the access log holds its fixed window of records and
every latency series its fixed window of samples — and
``/metrics/summary`` is exactly the summary of that window.  Nothing
here measures memory; the counts are what memory is made of.
"""

import itertools
import json

import numpy as np

from repro.platforms import BigML, Google, Microsoft
from repro.service.clock import VirtualClock
from repro.service.telemetry import SAMPLE_WINDOW, Telemetry, percentile_summary
from repro.serving import Request, ServingGateway, encode_array
from repro.serving.middleware import ACCESS_LOG_WINDOW

SESSIONS = 300
PREDICTS = 13  # 300 x (upload + train + poll + 13 predicts + delete) = 5100
PLATFORMS = {"bigml": "DT", "google": None, "microsoft": "LR"}

RNG = np.random.default_rng(31)
X = RNG.standard_normal((24, 4))
Y = (X[:, 0] > 0).astype(int)


def _ticking(cls):
    """``cls`` whose every metered call takes a distinct virtual time."""

    class Ticking(cls):
        def __init__(self, clock, **kwargs):
            super().__init__(**kwargs)
            self._virtual = clock
            self._ticks = itertools.count(1)

        def _consume_request(self):
            self._virtual.advance((next(self._ticks) % 97) * 1e-4)
            super()._consume_request()

    return Ticking


class _RecordingTelemetry(Telemetry):
    """Telemetry that also keeps every sample, as the reference."""

    def __init__(self):
        super().__init__()
        self.every: dict = {}

    def record_sample(self, name, value):
        self.every.setdefault(name, []).append(float(value))
        super().record_sample(name, value)


def _call(gateway, method, path, payload=None) -> dict:
    raw = json.dumps(payload).encode("utf-8") if payload is not None else b""
    response = gateway.handle(Request(method=method, path=path, raw_body=raw))
    assert response.status == 200, (method, path, response.body)
    return response.body


def _session(gateway, platform, classifier, index) -> int:
    prefix = f"/platforms/{platform}"
    dataset_id = _call(gateway, "POST", f"{prefix}/datasets", {
        "X": encode_array(X), "y": encode_array(Y), "name": f"s{index}",
    })["dataset_id"]
    payload = {"dataset_id": dataset_id}
    if classifier is not None:
        payload["classifier"] = classifier
    model_id = _call(gateway, "POST", f"{prefix}/models", payload)["model_id"]
    assert _call(gateway, "GET", f"{prefix}/models/{model_id}")["state"] == \
        "COMPLETED"
    for position in range(PREDICTS):
        rows = X[position % 4::4]
        _call(gateway, "POST", f"{prefix}/models/{model_id}/predict",
              {"X": encode_array(rows)})
    _call(gateway, "DELETE", f"{prefix}/datasets/{dataset_id}")
    return 4 + PREDICTS


def test_server_state_stays_bounded_over_many_sessions():
    clock = VirtualClock()
    telemetry = _RecordingTelemetry()
    classes = {"bigml": BigML, "google": Google, "microsoft": Microsoft}
    gateway = ServingGateway(
        [_ticking(classes[name])(clock, random_state=0) for name in PLATFORMS],
        clock=clock, telemetry=telemetry,
    )
    cycle = itertools.cycle(PLATFORMS.items())
    requests = sum(
        _session(gateway, *next(cycle), index) for index in range(SESSIONS)
    )
    assert requests >= 5000

    # Models die with their datasets: nothing outlives its session.
    for name in PLATFORMS:
        assert _call(gateway, "GET", f"/platforms/{name}/models") == \
            {"models": []}
        assert _call(gateway, "GET", f"/platforms/{name}/datasets") == \
            {"datasets": []}

    # The access log keeps its window of the most recent records.
    records = gateway.access_log.records()
    assert len(records) == ACCESS_LOG_WINDOW < requests
    assert records[-1]["path"] == "/platforms/microsoft/datasets"

    # Every sample series is capped at its window ...
    predicts = telemetry.every["latency_samples.batch_predict"]
    assert len(predicts) == SESSIONS * PREDICTS > SAMPLE_WINDOW
    for name, every in telemetry.every.items():
        assert len(telemetry.sample_values(name)) <= SAMPLE_WINDOW
        assert telemetry.sample_values(name) == every[-SAMPLE_WINDOW:]

    # ... and /metrics/summary is exact over that window.
    summary = _call(gateway, "GET", "/metrics/summary")["operations"]
    assert set(summary) == set(telemetry.every)
    for name, every in telemetry.every.items():
        assert summary[name] == percentile_summary(every[-SAMPLE_WINDOW:])
    # The window is a real cut: the all-time summary differs.
    assert summary["latency_samples.batch_predict"] != \
        percentile_summary(predicts)


def test_queued_job_of_a_deleted_dataset_still_fails_as_deleted():
    gateway = ServingGateway([Google(random_state=0, synchronous=False)],
                             clock=VirtualClock())
    dataset_id = _call(gateway, "POST", "/platforms/google/datasets", {
        "X": encode_array(X), "y": encode_array(Y),
    })["dataset_id"]
    model_id = _call(gateway, "POST", "/platforms/google/models",
                     {"dataset_id": dataset_id})["model_id"]
    assert _call(gateway, "GET", f"/platforms/google/models/{model_id}")[
        "state"] == "QUEUED"
    _call(gateway, "DELETE", f"/platforms/google/datasets/{dataset_id}")
    # The queued job outlives its dataset, so it can report why it failed.
    assert _call(gateway, "GET", "/platforms/google/models") == \
        {"models": [model_id]}
    handle = _call(gateway, "POST",
                   f"/platforms/google/models/{model_id}/await")
    assert handle["state"] == "FAILED"
    assert "deleted" in handle["failure_reason"]["detail"]
