"""Campaign thread-executor speedup — concurrent vs. serial sweeps.

The simulated platforms answer instantly, so out of the box there is
nothing for concurrency to hide.  This bench injects a fixed per-request
latency into every platform (the network round-trip the paper's scripts
spent most of their wall-clock on) and demonstrates that the thread
executor of :func:`repro.service.run_campaign` overlaps requests across
platforms: with one worker per
platform the sweep must finish at least 2x faster than the serial loop,
while producing a bit-identical result store.
"""

import time

from benchmarks.conftest import print_banner
from repro.core import ExperimentRunner
from repro.core.config_space import baseline_configuration
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.platforms import ALL_PLATFORMS
from repro.service import run_campaign

REQUEST_LATENCY = 0.05  # seconds of simulated network round-trip


def _laggy(cls, latency=REQUEST_LATENCY):
    """A platform subclass whose every metered request costs ``latency``."""

    class Laggy(cls):
        def _consume_request(self):
            time.sleep(latency)
            super()._consume_request()

    Laggy.__name__ = f"Laggy{cls.__name__}"
    Laggy.__qualname__ = Laggy.__name__
    return Laggy


def test_campaign_speedup_over_serial():
    corpus = load_corpus(max_datasets=3, size_cap=100, feature_cap=8,
                         random_state=0)
    classes = [_laggy(cls) for cls in ALL_PLATFORMS]

    def serial():
        runner = ExperimentRunner(split_seed=7)
        store = ResultStore()
        for cls in classes:
            platform = cls(random_state=0)
            store.extend(runner.sweep(
                platform, corpus, [baseline_configuration(platform)]
            ))
        return store

    def concurrent():
        platforms = [cls(random_state=0) for cls in classes]
        return run_campaign(
            ExperimentRunner(split_seed=7), platforms, corpus,
            {p.name: [baseline_configuration(p)] for p in platforms},
            workers=len(platforms),
        )

    start = time.perf_counter()
    serial_store = serial()
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    concurrent_store = concurrent()
    concurrent_seconds = time.perf_counter() - start

    speedup = serial_seconds / concurrent_seconds
    print_banner("Campaign threads — wall-clock speedup over serial sweep")
    print(f"platforms: {len(classes)}  datasets: {len(corpus)}  "
          f"request latency: {REQUEST_LATENCY * 1000:.0f} ms")
    print(f"serial:     {serial_seconds:8.2f} s")
    print(f"concurrent: {concurrent_seconds:8.2f} s  "
          f"(workers={len(classes)})")
    print(f"speedup:    {speedup:8.2f} x")

    assert list(concurrent_store) == list(serial_store)
    assert speedup >= 2.0
