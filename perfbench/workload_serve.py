"""``serve``: ``repro serve`` driven over loopback HTTP by a closed loop.

``NPROC`` client sessions run back to back, each waiting for every
reply, as the paper's scripts did.  A session is upload -> train
(``create_model``) -> ``get_model`` -> ``PREDICTS`` x ``batch_predict``
-> ``delete_dataset`` against one platform of the fixed cycle in
``inputs.SERVE_CYCLE``.  The gate: every request answers 2xx and the
order-independent prediction digest equals a replay of the same
sessions on in-process platforms.
"""

from __future__ import annotations

import json
import threading
import time
import zlib

import numpy as np

from repro.exceptions import ReproError
from repro.platforms import make_platform
from repro.platforms.base import JobState
from repro.serving import HTTPPlatformClient, ServingGateway
from repro.serving.protocol import (
    Request,
    decode_array,
    encode_array,
    handle_from_wire,
)

import benchstats
import hostenv
import inputs
from hostenv import NPROC
from metrics import OPS, PLATFORMS

ROWS, FEATURES, PREDICTS, QUERY_ROWS = 120, 8, 16, 32
SMOKE = dict(rows=30, features=4, predicts=2, query_rows=4)
#: Session index base of the untimed warm-up sessions.
WARMUP_INDEX = 100_000


def _shape(args) -> dict:
    if args.smoke:
        return dict(SMOKE, clients=NPROC)
    return dict(rows=ROWS, features=FEATURES, predicts=PREDICTS,
                query_rows=QUERY_ROWS, clients=NPROC)


def setup(args) -> dict:
    proc, url, boot_s = hostenv.spawn_server(args.seed)
    return {"server": proc, "url": url,
            "setup_layers": {"serving.boot_s": boot_s}}


def teardown(state: dict) -> None:
    hostenv.stop_process(state["server"])


def _digest(predictions) -> int:
    """The loadgen payload digest: crc32 over dtype name and bytes."""
    array = np.ascontiguousarray(predictions)
    return zlib.crc32(str(array.dtype).encode() + array.tobytes()) % (2**31)


def combined_digest(lines) -> int:
    return zlib.crc32("\n".join(sorted(lines)).encode()) % (2**31)


class Recorder:
    """Per-operation latencies, failures and prediction digests."""

    def __init__(self):
        self._lock = threading.Lock()
        self.latencies = {op: [] for op in OPS}
        self.finished: list = []
        self.failures: list = []
        self.digests: list = []
        self.sessions: list = []

    def add(self, op, seconds):
        with self._lock:
            self.latencies[op].append(seconds)
            self.finished.append(time.perf_counter())

    def fail(self, key, op, exc):
        with self._lock:
            self.failures.append(f"{key} {op}: {type(exc).__name__}: {exc}")

    def done(self, key, digests):
        with self._lock:
            self.sessions.append(key)
            self.digests.extend(digests)

    @property
    def requests(self) -> int:
        return sum(len(v) for v in self.latencies.values()) + len(self.failures)

    def p50_ms(self) -> dict:
        return {op: 1000.0 * benchstats.median(v)
                for op, v in self.latencies.items() if v}


def run_session(surface, session, recorder, tracer=None, prefix="") -> bool:
    """Drive one session through ``surface`` (HTTP client, gateway, platform)."""
    digests = []
    op = "upload_dataset"

    def call(op_name, fn, /, *call_args, **kwargs):
        nonlocal op
        op = op_name
        started = time.perf_counter()
        if tracer is None:
            value = fn(*call_args, **kwargs)
        else:
            with tracer.span(f"{prefix}{op_name}", platform=session.platform,
                             classifier=session.classifier or "auto"):
                value = fn(*call_args, **kwargs)
        recorder.add(op_name, time.perf_counter() - started)
        return value

    try:
        dataset_id = call("upload_dataset", surface.upload_dataset,
                          session.X, session.y, name=session.key)
        model_id = call("create_model", surface.create_model, dataset_id,
                        classifier=session.classifier)
        handle = call("get_model", surface.get_model, model_id)
        if handle.state is not JobState.COMPLETED:
            raise ReproError(f"model {model_id} is {handle.state.value}")
        for position, queries in enumerate(session.queries):
            predictions = call("batch_predict", surface.batch_predict,
                               model_id, queries)
            digests.append(f"{session.key}:{position}:{_digest(predictions)}")
        call("delete_dataset", surface.delete_dataset, dataset_id)
    except ReproError as exc:
        recorder.fail(session.key, op, exc)
        return False
    recorder.done(session.key, digests)
    return True


def closed_loop(surface_for, sessions_for, recorder, deadline=None,
                tracer=None, prefix=""):
    """One thread per client; each runs its sessions back to back.

    With a ``deadline`` a client starts no new session after it; without
    one, each client runs exactly the sessions ``sessions_for`` yields.
    """
    errors = []

    def client(position):
        try:
            surfaces = {}
            for session in sessions_for(position):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if session.platform not in surfaces:
                    surfaces[session.platform] = surface_for(position, session.platform)
                if not run_session(surfaces[session.platform], session,
                                   recorder, tracer, prefix):
                    break
            for surface in surfaces.values():
                close = getattr(surface, "close", None)
                if close is not None:
                    close()
        except Exception as exc:  # reported through the gate
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(NPROC)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def _sessions(args, shape, indices_for):
    def sessions_for(client):
        for index in indices_for(client):
            yield inputs.serve_session(args.seed, client, index, **shape)
    return sessions_for


def _completed(recorder) -> dict:
    by_client: dict = {}
    for key in recorder.sessions:
        client, index = key.split(":")
        by_client.setdefault(int(client[1:]), []).append(int(index[1:]))
    return {client: sorted(indices) for client, indices in by_client.items()}


def _http_surface(url):
    def surface_for(position, platform):
        return HTTPPlatformClient(url, platform, client_id=f"bench{position}")
    return surface_for


def _replay_bare(args, sessions, tracer=None) -> Recorder:
    """Replay sessions on fresh in-process platforms (no server, no wire)."""
    platforms = {name: make_platform(name, random_state=args.seed)
                 for name in PLATFORMS}
    recorder = Recorder()
    for session in sessions:
        run_session(platforms[session.platform], session, recorder, tracer,
                    prefix="platforms.")
    return recorder


def run(state: dict, args, tracer) -> dict:
    shape = _shape(args)
    url = state["url"]
    warm = Recorder()
    closed_loop(_http_surface(url),
                _sessions(args, shape, lambda c: [WARMUP_INDEX + c]), warm)

    timed = Recorder()
    deadline = time.perf_counter() + args.seconds
    elapsed = closed_loop(_http_surface(url),
                          _sessions(args, shape, lambda c: iter(range(10**6))),
                          timed, deadline=deadline)
    # Throughput counts the replies inside the fixed window only; the
    # sessions still open at the deadline finish for the gate.
    in_window = sum(1 for t in timed.finished if t <= deadline)
    peak_mb = hostenv.vm_hwm_mb(state["server"].pid)
    completed = _completed(timed)
    replay = _sessions(args, shape, lambda client: completed.get(client, []))
    sessions = [session for c in sorted(completed) for session in replay(c)]
    errors = list(warm.failures) + list(timed.failures)
    digest = combined_digest(timed.digests)
    if not errors:
        reference = _replay_bare(args, sessions)
        if reference.failures or combined_digest(reference.digests) != digest:
            errors.append("prediction digest differs from the in-process replay")

    predict = timed.latencies["batch_predict"]
    result = {
        "correct": not errors,
        "errors": errors,
        "attempted": timed.requests,
        "failed": len(timed.failures),
        "metrics": {
            "throughput_per_s": in_window / args.seconds,
            "latency_p50_ms": 1000.0 * benchstats.median(predict) if predict else 0.0,
            "peak_rss_mb": peak_mb,
        },
        "notes": {"sessions": len(timed.sessions), "predicts": len(predict),
                  "elapsed_s": elapsed},
    }
    if tracer is not None and not errors:
        result["layers"] = _traced(args, tracer, timed, replay, sessions,
                                   digest, result)
    return result


class GatewaySurface:
    """Socket-free platform surface: requests go to ``ServingGateway.handle``."""

    def __init__(self, gateway, platform, tracer):
        self._gateway = gateway
        self._prefix = f"/platforms/{platform}"
        self._tracer = tracer

    def _request(self, op, method, path, payload=None):
        raw = json.dumps(payload, sort_keys=True).encode() if payload is not None else b""
        request = Request(method=method, path=self._prefix + path, raw_body=raw,
                          headers={"Content-Type": "application/json"})
        with self._tracer.span(f"gateway.{op}"):
            response = self._gateway.handle(request)
        if response.status >= 300:
            raise ReproError(f"gateway answered {response.status}: {response.body}")
        return response.body

    def upload_dataset(self, X, y, name="dataset"):
        return self._request("upload_dataset", "POST", "/datasets", {
            "X": encode_array(X), "y": encode_array(y), "name": name,
        })["dataset_id"]

    def create_model(self, dataset_id, classifier=None):
        payload = {"dataset_id": dataset_id}
        if classifier is not None:
            payload["classifier"] = classifier
        return self._request("create_model", "POST", "/models", payload)["model_id"]

    def get_model(self, model_id):
        return handle_from_wire(
            self._request("get_model", "GET", f"/models/{model_id}"))

    def batch_predict(self, model_id, X):
        body = self._request("batch_predict", "POST", f"/models/{model_id}/predict",
                             {"X": encode_array(X)})
        return decode_array(body["predictions"])

    def delete_dataset(self, dataset_id):
        self._request("delete_dataset", "DELETE", f"/datasets/{dataset_id}")


def _traced(args, tracer, timed, replay, sessions, digest, result) -> dict:
    layers = {}

    # 1. Over HTTP, against a fresh server so /metrics/summary holds
    #    exactly this phase's samples.
    proc, url, _ = hostenv.spawn_server(args.seed)
    try:
        http = Recorder()
        closed_loop(_http_surface(url), replay, http,
                    tracer=tracer, prefix="client.")
        probe = HTTPPlatformClient(url, PLATFORMS[0])
        try:
            summary = probe.metrics_summary()["operations"]
        finally:
            probe.close()
    finally:
        hostenv.stop_process(proc)
    client = http.p50_ms()
    server = {op: 1000.0 * summary[f"latency_samples.{op}"]["p50"]
              for op in OPS if f"latency_samples.{op}" in summary}
    transport = benchstats.transport_ms(client, server)

    # 2. In-process gateway, no sockets.
    gateway = ServingGateway([make_platform(name, random_state=args.seed)
                              for name in PLATFORMS])
    via_gateway = Recorder()
    for session in sessions:
        run_session(GatewaySurface(gateway, session.platform, tracer),
                    session, via_gateway)

    # 3. Bare platforms.
    bare = _replay_bare(args, sessions, tracer)

    for name, recorder in (("HTTP", http), ("gateway", via_gateway), ("bare", bare)):
        if recorder.failures or combined_digest(recorder.digests) != digest:
            result["correct"] = False
            result["errors"].append(f"traced {name} replay differs")

    encode, decode = [], []
    for queries in (q for session in sessions for q in session.queries):
        t0 = time.perf_counter()
        raw = json.dumps({"X": encode_array(queries)}, sort_keys=True)
        t1 = time.perf_counter()
        decode_array(json.loads(raw)["X"])
        t2 = time.perf_counter()
        encode.append(t1 - t0)
        decode.append(t2 - t1)

    for op in OPS:
        layers[f"serving.client_ms.{op}"] = client.get(op, 0.0)
        layers[f"serving.server_ms.{op}"] = server.get(op, 0.0)
        layers[f"serving.transport_ms.{op}"] = transport.get(op, 0.0)
        spans = tracer.named(f"gateway.{op}")
        if spans:
            layers[f"serving.gateway_ms.{op}"] = 1000.0 * benchstats.median(
                span.duration for span in spans)
        layers[f"platforms.{op}_ms"] = bare.p50_ms().get(op, 0.0)
    layers["serving.codec_ms.encode"] = 1000.0 * benchstats.median(encode)
    layers["serving.codec_ms.decode"] = 1000.0 * benchstats.median(decode)
    if client.get("batch_predict"):
        layers["serving.transport_share.batch_predict"] = (
            transport.get("batch_predict", 0.0) / client["batch_predict"])
    tail = benchstats.tail_percentile(timed.latencies["batch_predict"])
    if tail is not None:
        layers["serving.predict_tail_pct"], tail_s = tail
        layers["serving.predict_tail_ms"] = 1000.0 * tail_s
    layers["serving.train_p50_ms"] = timed.p50_ms().get("create_model", 0.0)

    fits: dict = {}
    per_platform: dict = {}
    for span in tracer.spans:
        if not span.name.startswith("platforms."):
            continue
        per_platform[span.attrs["platform"]] = (
            per_platform.get(span.attrs["platform"], 0.0) + span.duration)
        if span.name == "platforms.create_model":
            abbr = span.attrs["classifier"]
            fits[abbr] = fits.get(abbr, 0.0) + span.duration
    for abbr, seconds in fits.items():
        layers[f"learn.fit_s.{abbr}"] = seconds
    for name, seconds in per_platform.items():
        layers[f"platforms.{name}_s"] = seconds
    layers["learn.predict_s"] = sum(bare.latencies["batch_predict"])
    untraced = result["metrics"]["latency_p50_ms"]
    layers["trace.overhead_s"] = (client.get("batch_predict", 0.0) - untraced) / 1000.0
    layers["trace.overhead_ratio"] = client.get("batch_predict", 0.0) / untraced - 1.0
    return layers
