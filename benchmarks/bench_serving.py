"""Serving-layer latency percentiles and throughput under concurrency.

Boots the stdlib HTTP front-end on a loopback socket and drives it with
the deterministic load generator at several closed-loop concurrency
levels.  A level is ``clients`` concurrent sessions, repeated over
reseeded rounds until it holds enough samples: a percentile is reported
only when at least :data:`MIN_TAIL` samples lie beyond it, so the full
mode's ``batch_predict`` p99 and every level's p95 rest on real tails,
not on the largest of a handful of samples.  Each level first runs one
untimed warm-up round.  Before any timing counts, every round's
``payload_digest`` must equal the serial reference run of the same
seeded schedule — the bench is also the proof that concurrency adds
throughput without adding nondeterminism.

Latencies are taken at the client surface, around each
:class:`HTTPPlatformClient` call, and pooled over a level's rounds.

Results are written to ``BENCH_serving.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]
        [--output BENCH_serving.json]

or via pytest (quick mode) as part of the bench suite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform as host_platform
import time
import zlib
from pathlib import Path

try:
    from benchmarks.conftest import print_banner
except ImportError:  # direct script execution without the package parent
    def print_banner(title: str) -> None:
        print()
        print("=" * 72)
        print(title)
        print("=" * 72)

import numpy as np

from repro.platforms import BigML
from repro.service.telemetry import SUMMARY_PERCENTILES, percentile_summary
from repro.serving import (
    HTTPPlatformClient,
    LoadgenConfig,
    ServingGateway,
    run_load,
    serve_background,
)

QUICK_LEVELS = (1, 4)
FULL_LEVELS = (1, 2, 4, 8)
SEED = 11
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10
#: Sessions per level: 210 puts 10 session-level samples (one upload,
#: train, poll and delete per session) beyond p95, and 210 x 5
#: predictions put 10 beyond the predict p99.
FULL_SESSIONS, QUICK_SESSIONS = 210, 24
OPERATIONS = ("upload_dataset", "create_model", "get_model",
              "batch_predict", "delete_dataset")


def _config(clients: int, quick: bool, seed: int) -> LoadgenConfig:
    return LoadgenConfig(
        clients=clients,
        predicts_per_client=2 if quick else 5,
        mode="closed",
        seed=seed,
        samples=40 if quick else 80,
        features=5,
        query_rows=8 if quick else 16,
    )


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` rank."""
    return max(0, n - 1 - math.floor(pct / 100.0 * (n - 1)))


def supported_summary(samples) -> dict:
    """:func:`percentile_summary` restricted to percentiles with a tail."""
    percentiles = [pct for pct in SUMMARY_PERCENTILES
                   if samples_beyond(len(samples), pct) >= MIN_TAIL]
    return percentile_summary(samples, percentiles=percentiles)


class _TimedClient:
    """Client proxy that records the latency of every platform call."""

    def __init__(self, client, samples: dict):
        self._client = client
        self._samples = samples

    def __getattr__(self, name):
        attribute = getattr(self._client, name)
        if name not in OPERATIONS:
            return attribute

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return attribute(*args, **kwargs)
            finally:
                self._samples[name].append(time.perf_counter() - started)

        return timed


def _host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": host_platform.machine(),
        "python": host_platform.python_version(),
        "numpy": np.__version__,
    }


def _combined(digests) -> int:
    return zlib.crc32(",".join(map(str, digests)).encode()) % (2**31)


def run_level(url: str, clients: int, quick: bool) -> dict:
    """One warm-up round, then reseeded timed rounds, pooled."""
    sessions = QUICK_SESSIONS if quick else FULL_SESSIONS
    rounds = -(-sessions // clients)
    samples: dict = {operation: [] for operation in OPERATIONS}

    def factory(client_id: str):
        return HTTPPlatformClient(url, "bigml", client_id=client_id)

    def timed_factory(client_id: str):
        return _TimedClient(factory(client_id), samples)

    run_load(factory, _config(clients, quick, SEED - 1))  # warm-up
    digests, serial_digests, failed, elapsed = [], [], 0, 0.0
    for round_index in range(rounds):
        config = _config(clients, quick, SEED + round_index)
        started = time.perf_counter()
        report = run_load(timed_factory, config, parallel=True)
        elapsed += time.perf_counter() - started
        digests.append(report["payload_digest"])
        failed += report["requests_failed"]
        serial_digests.append(
            run_load(factory, config, parallel=False)["payload_digest"])
    everything = [value for operation in OPERATIONS
                  for value in samples[operation]]
    return {
        "rounds": rounds,
        "sessions": rounds * clients,
        "requests_total": len(everything),
        "requests_failed": failed,
        "throughput_rps": round(len(everything) / elapsed, 9),
        "overall_latency": supported_summary(everything),
        "operations": {operation: supported_summary(samples[operation])
                       for operation in OPERATIONS},
        "payload_digest": _combined(digests),
        "serial_payload_digest": _combined(serial_digests),
        "serial_equivalent": digests == serial_digests,
    }


def run_bench(quick: bool = True) -> dict:
    """Run every concurrency level against one loopback server."""
    levels = QUICK_LEVELS if quick else FULL_LEVELS
    gateway = ServingGateway([BigML(random_state=0)])
    server, thread = serve_background(gateway)
    try:
        results: dict = {
            "mode": "quick" if quick else "full",
            "seed": SEED,
            "platform": "bigml",
            "host": _host(),
            "min_tail": MIN_TAIL,
            "levels": {
                str(clients): run_level(server.url, clients, quick)
                for clients in levels
            },
        }
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return results


def _ms(summary: dict, key: str) -> str:
    return f"{summary[key] * 1000:>9.2f}" if key in summary else f"{'-':>9}"


def print_report(results: dict) -> None:
    """Human-readable view of one bench run ('-': too few samples)."""
    print_banner("Serving layer — latency percentiles under concurrency")
    print(f"platform: {results['platform']}  seed: {results['seed']}  "
          f"mode: {results['mode']}  host: {results['host']}")
    header = (f"{'clients':>8} {'reqs':>6} {'fail':>5} {'rps':>9} "
              f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} "
              f"{'pred p50':>9} {'pred p99':>9} {'serial==':>9}")
    print(header)
    for clients, level in sorted(results["levels"].items(),
                                 key=lambda item: int(item[0])):
        latency = level["overall_latency"]
        predict = level["operations"]["batch_predict"]
        print(f"{clients:>8} {level['requests_total']:>6} "
              f"{level['requests_failed']:>5} "
              f"{level['throughput_rps']:>9.1f} "
              f"{_ms(latency, 'p50')} {_ms(latency, 'p95')} "
              f"{_ms(latency, 'p99')} "
              f"{_ms(predict, 'p50')} {_ms(predict, 'p99')} "
              f"{str(level['serial_equivalent']):>9}")


def check_results(results: dict) -> None:
    """The bench's correctness gates (shared by pytest and __main__)."""
    assert len(results["levels"]) >= 2
    for clients, level in results["levels"].items():
        assert level["requests_failed"] == 0, \
            f"{clients} clients: {level['requests_failed']} failed requests"
        assert level["serial_equivalent"], \
            f"{clients} clients: digest diverged from the serial run"
        for summary in [level["overall_latency"],
                        *level["operations"].values()]:
            assert "p50" in summary, f"{clients} clients: no p50 support"
            reported = [summary[f"p{pct:g}"] for pct in SUMMARY_PERCENTILES
                        if f"p{pct:g}" in summary]
            assert reported == sorted(reported)
            for pct in SUMMARY_PERCENTILES:
                if f"p{pct:g}" in summary:
                    assert samples_beyond(summary["count"], pct) >= MIN_TAIL
        assert level["throughput_rps"] > 0


def test_serving_bench_quick():
    """Pytest entry: quick levels, all gates."""
    results = run_bench(quick=True)
    print_report(results)
    check_results(results)


def main(argv=None) -> int:
    """Script entry: run, print, check, write the JSON artifact."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer levels, smaller sessions")
    parser.add_argument("--output", default="BENCH_serving.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)
    results = run_bench(quick=args.quick)
    print_report(results)
    check_results(results)
    path = Path(args.output)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nresults written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
