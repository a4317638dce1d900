"""``campaign``: the paper's per-control protocols through MLaaSStudy.

Each of ``baseline``/``FEAT``/``CLF``/``PARA`` runs as its own plan
(see NOTES.md for why plans are never concatenated) over a reseeded
six-dataset slice of the program's corpus.  The serial sweep runs
first: it is the untimed warm-up and the reference whose saved
``ResultStore`` bytes every timed, process-sharded pass must reproduce
exactly.  ``run.py`` starts this worker with one BLAS thread per process
(NOTES.md, finding 2); each timed plan is scaled to the reference host
by the host-speed probe of both cores (``hostspeed.py``).
"""

from __future__ import annotations

import dataclasses
import os
import resource
import time

from repro.core.runner import ExperimentRunner
from repro.core.study import MLaaSStudy
from repro.datasets.corpus import load_dataset
from repro.datasets.registry import get_spec
from repro.platforms import ALL_PLATFORMS

import benchstats
import inputs
from hostenv import NPROC, WORK_DIR
from hostspeed import Probe
from metrics import OPS, PROTOCOLS
from spans import self_times

SMOKE_SIZE_CAP, SMOKE_FEATURE_CAP = 40, 4
#: A timed phase keeps at least this many full passes.
MIN_PASSES = 2
#: The plans whose cost is mostly logistic-regression fits through BLAS,
#: and the passes over them that measure the BLAS oversubscription.
BLAS_PLANS = ("baseline", "FEAT")
BLAS_PASSES = 3


class CorpusSliceStudy(MLaaSStudy):
    """An MLaaSStudy over a given corpus slice instead of its own subset."""

    def __init__(self, datasets, **kwargs):
        super().__init__(**kwargs)
        self._slice = list(datasets)

    @property
    def corpus(self):
        return self._slice


def setup(args) -> dict:
    """Materialize the reseeded corpus slice through ``repro.datasets``."""
    started = time.perf_counter()
    size_cap, feature_cap = (
        (SMOKE_SIZE_CAP, SMOKE_FEATURE_CAP) if args.smoke
        else (inputs.CAMPAIGN_SIZE_CAP, inputs.CAMPAIGN_FEATURE_CAP)
    )
    seeds = inputs.campaign_seeds(args.seed)
    names = list(seeds)[:2] if args.smoke else list(seeds)
    datasets = [
        load_dataset(dataclasses.replace(get_spec(name), seed=seeds[name]),
                     size_cap=size_cap, feature_cap=feature_cap)
        for name in names
    ]
    return {"datasets": datasets,
            "setup_layers": {"datasets.corpus_s": time.perf_counter() - started}}


def _run(study, protocol: str):
    if protocol == "baseline":
        return study.run_baseline()
    return study.run_per_control(protocol)


def _store_bytes(store, name: str) -> bytes:
    path = WORK_DIR / "campaign" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    store.save(path)
    return path.read_bytes()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class TracedRunner(ExperimentRunner):
    """Records one ``core.run_one`` span per measurement (the trace root)."""

    def __init__(self, tracer, **kwargs):
        super().__init__(**kwargs)
        self._tracer = tracer
        self._jobs = 0

    def run_one(self, platform, dataset, configuration, split=None):
        self._jobs += 1
        with self._tracer.span("core.run_one", trace=f"job{self._jobs}"):
            return super().run_one(platform, dataset, configuration, split)


class TracedPlatform:
    """Platform proxy: one span per API call, everything else delegated."""

    def __init__(self, platform, tracer):
        self._platform = platform
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._platform, name)

    def _call(self, op, *args, classifier=None, **kwargs):
        attrs = {"platform": self._platform.name}
        if op == "create_model":
            default = self._platform.classifier_abbrs()
            attrs["classifier"] = classifier or (default[0] if default else "auto")
            kwargs["classifier"] = classifier
        with self._tracer.span(f"platforms.{op}", **attrs):
            return getattr(self._platform, op)(*args, **kwargs)

    def upload_dataset(self, *args, **kwargs):
        return self._call("upload_dataset", *args, **kwargs)

    def create_model(self, *args, **kwargs):
        return self._call("create_model", *args, **kwargs)

    def get_model(self, *args, **kwargs):
        return self._call("get_model", *args, **kwargs)

    def batch_predict(self, *args, **kwargs):
        return self._call("batch_predict", *args, **kwargs)

    def delete_dataset(self, *args, **kwargs):
        return self._call("delete_dataset", *args, **kwargs)


def _sharded_pass(sharded, reference, mismatches) -> dict:
    """One timed pass of every protocol plan, checked against the reference.

    ``windows`` keeps each plan's ``time.monotonic()`` start and end, for
    scaling by the host-speed samples taken meanwhile.
    """
    record = {"windows": {}, "walls": {}, "jobs": 0, "hits": 0, "misses": 0,
              "shards": 0, "cpu_s": 0.0}
    for protocol in PROTOCOLS:
        cpu_before = _cpu_seconds()
        t0 = time.monotonic()
        store = _run(sharded, protocol)
        t1 = time.monotonic()
        record["windows"][protocol] = (t0, t1)
        record["walls"][protocol] = t1 - t0
        record["cpu_s"] += _cpu_seconds() - cpu_before
        if _store_bytes(store, f"sharded-{protocol}") != reference[protocol]:
            mismatches.append(f"{protocol}")
        telemetry = sharded.telemetry
        record["jobs"] += len(store)
        record["hits"] += telemetry.counter_value("fit_cache_hits")
        record["misses"] += telemetry.counter_value("fit_cache_misses")
        record["shards"] += telemetry.counter_value("shards_total")
    return record


def _blas_plans_s(ref_walls: list) -> float:
    return sum(benchstats.median(w[p] for w in ref_walls) for p in BLAS_PLANS)


def blas_plans(state: dict, args) -> dict:
    """The BLAS-heavy plans, sharded, in this process's BLAS environment.

    ``run.py`` starts this with the default thread pools and divides by
    the same figure of the timed passes (one BLAS thread per worker).
    """
    sharded = CorpusSliceStudy(state["datasets"], random_state=args.seed,
                               processes=NPROC)
    windows = []
    with Probe(os.sched_getaffinity(0)) as probe:
        for _ in range(BLAS_PASSES):
            windows.append({})
            for protocol in BLAS_PLANS:
                t0 = time.monotonic()
                _run(sharded, protocol)
                windows[-1][protocol] = (t0, time.monotonic())
    ref_walls = [{p: probe.scale(*w) for p, w in plans.items()} for plans in windows]
    return {"blas_plans_s": _blas_plans_s(ref_walls), "ref_walls_s": ref_walls}


def run(state: dict, args, tracer) -> dict:
    datasets = state["datasets"]
    serial = CorpusSliceStudy(datasets, random_state=args.seed)
    reference = {}
    started = time.perf_counter()
    for protocol in PROTOCOLS:
        reference[protocol] = _store_bytes(_run(serial, protocol), f"serial-{protocol}")
    serial_wall = time.perf_counter() - started

    sharded = CorpusSliceStudy(datasets, random_state=args.seed, processes=NPROC)
    passes = []
    mismatches = []
    with Probe(os.sched_getaffinity(0)) as probe:
        phase_started = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - phase_started < args.seconds):
            passes.append(_sharded_pass(sharded, reference, mismatches))
        # Read while the helper lives: a reaped helper would count as a child.
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # In reference seconds (hostspeed.py); the run record keeps the raw ones.
    ref_walls = [{p: probe.scale(*w) for p, w in r.pop("windows").items()}
                 for r in passes]
    pass_totals = [sum(walls.values()) for walls in ref_walls]
    pass_s = benchstats.median(pass_totals)
    jobs_per_pass = passes[0]["jobs"]
    result = {
        "correct": not mismatches,
        "errors": [f"sharded store differs from serial: {m}" for m in mismatches],
        "attempted": sum(record["jobs"] for record in passes),
        "failed": 0,
        "metrics": {
            "throughput_per_s": jobs_per_pass * len(passes) / sum(pass_totals),
            "latency_p50_ms": 1000.0 * pass_s,
            "peak_rss_mb": kb / 1024.0,
        },
        "notes": {"jobs_per_pass": jobs_per_pass, "serial_wall_s": serial_wall,
                  "pass_walls_s": [r["walls"] for r in passes],
                  "pass_ref_walls_s": ref_walls, "kernel_s": probe.kernel_s,
                  "blas_plans_s": _blas_plans_s(ref_walls)},
    }
    if tracer is not None:
        result["layers"] = _traced(state, args, tracer, reference, passes, result)
    return result


def _traced(state, args, tracer, reference, passes, result) -> dict:
    # The reference sweep ran cold; time a warm untraced serial sweep as
    # the base of the tracing overhead and of parallel efficiency.
    serial = CorpusSliceStudy(state["datasets"], random_state=args.seed)
    started = time.perf_counter()
    for protocol in PROTOCOLS:
        _run(serial, protocol)
    serial_wall = time.perf_counter() - started

    platforms = [TracedPlatform(cls(random_state=args.seed), tracer)
                 for cls in ALL_PLATFORMS]
    study = CorpusSliceStudy(state["datasets"], platforms=platforms,
                                 random_state=args.seed)
    study.runner = TracedRunner(tracer, split_seed=study.runner.split_seed)
    failed = total = 0
    started = time.perf_counter()
    for protocol in PROTOCOLS:
        store = _run(study, protocol)
        total += len(store)
        failed += sum(1 for r in store if not r.ok)
        if _store_bytes(store, f"traced-{protocol}") != reference[protocol]:
            result["correct"] = False
            result["errors"].append(f"traced store differs from serial: {protocol}")
    traced_wall = time.perf_counter() - started

    layers = {}
    fits: dict = {}
    for span in tracer.named("platforms.create_model"):
        fits[span.attrs["classifier"]] = fits.get(span.attrs["classifier"], 0.0) + span.duration
    for abbr, seconds in fits.items():
        layers[f"learn.fit_s.{abbr}"] = seconds
    layers["learn.predict_s"] = sum(s.duration for s in tracer.named("platforms.batch_predict"))
    last = passes[-1]
    layers["learn.fit_cache.hits"] = last["hits"]
    layers["learn.fit_cache.misses"] = last["misses"]
    lookups = last["hits"] + last["misses"]
    layers["learn.fit_cache.hit_ratio"] = last["hits"] / lookups if lookups else 0.0
    per_platform: dict = {}
    for op in OPS:
        spans = tracer.named(f"platforms.{op}")
        layers[f"platforms.{op}_ms"] = 1000.0 * benchstats.median(s.duration for s in spans)
        for span in spans:
            name = span.attrs["platform"]
            per_platform[name] = per_platform.get(name, 0.0) + span.duration
    for name, seconds in per_platform.items():
        layers[f"platforms.{name}_s"] = seconds
    layers["platforms.failed_ratio"] = failed / total
    run_one = [s.duration for s in tracer.named("core.run_one")]
    layers["core.run_one_ms.p50"] = 1000.0 * benchstats.median(run_one)
    layers["core.run_one_ms.p95"] = 1000.0 * benchstats.percentile(run_one, 95.0)
    layers["core.overhead_ms"] = 1000.0 * self_times(tracer.spans)["core.run_one"] / len(run_one)
    for protocol in PROTOCOLS:
        layers[f"service.protocol_s.{protocol}"] = benchstats.median(
            r["walls"][protocol] for r in passes)
    sharded_wall = sum(layers[f"service.protocol_s.{p}"] for p in PROTOCOLS)
    layers["service.cpu_s"] = benchstats.median(r["cpu_s"] for r in passes)
    layers["service.parallel_efficiency"] = serial_wall / (NPROC * sharded_wall)
    layers["service.shards"] = last["shards"]
    layers["trace.overhead_s"] = traced_wall - serial_wall
    layers["trace.overhead_ratio"] = traced_wall / serial_wall - 1.0
    return layers
