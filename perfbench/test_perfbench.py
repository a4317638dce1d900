"""Self-tests of the benchmark: statistics, spans, inputs, BENCHMARK.json, smoke.

    python3 -m pytest perfbench -q

The smoke tests run each workload end to end on tiny inputs (about a
minute in all); the rest take well under a second.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import benchstats
import hostenv
import hostspeed
import inputs
from metrics import END_TO_END, PER_LAYER
from spans import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


# -- statistics ----------------------------------------------------------

@pytest.mark.parametrize("n", [12, 99, 100, 150, 199, 200, 500, 901, 902, 1000])
def test_tail_percentile_needs_ten_samples_beyond(n):
    values = list(range(n))

    def above(pct):
        return sum(1 for v in values if v > np.percentile(values, pct))

    tail = benchstats.tail_percentile(values)
    chosen = tail[0] if tail is not None else 0.0
    for pct in benchstats.TAIL_PERCENTILES:
        if pct > chosen:
            assert above(pct) < 10
    if tail is not None:
        assert above(chosen) >= 10
        assert tail[1] == pytest.approx(np.percentile(values, chosen))


def test_tail_percentile_examples():
    assert benchstats.tail_percentile(range(1000))[0] == 99.0
    assert benchstats.tail_percentile(range(336))[0] == 95.0
    assert benchstats.tail_percentile(range(120))[0] == 90.0
    assert benchstats.tail_percentile(range(12)) is None


def test_samples_beyond_counts_strictly_above_rank():
    assert benchstats.samples_beyond(1000, 99.0) == 10
    assert benchstats.samples_beyond(100, 99.0) == 1
    assert benchstats.samples_beyond(5, 100.0) == 0


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert benchstats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert benchstats.quartile_spread([5.0] * 10) == 0.0
    with pytest.raises(ValueError):
        benchstats.quartile_spread([0.0, 0.0, 0.0])


def test_transport_subtracts_matching_operations_only():
    client = {"batch_predict": 48.0, "create_model": 60.0, "get_model": 44.5}
    server = {"batch_predict": 3.0, "create_model": 15.0, "delete_dataset": 0.1}
    assert benchstats.transport_ms(client, server) == {
        "batch_predict": 45.0, "create_model": 45.0}


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(37)
    for pct in (0.0, 12.5, 50.0, 95.0, 100.0):
        assert benchstats.percentile(values, pct) == pytest.approx(
            np.percentile(values, pct))


# -- host-speed probe ----------------------------------------------------

def test_probe_samples_each_core_until_stopped():
    cpus = sorted(os.sched_getaffinity(0))
    with hostspeed.Probe(cpus) as probe:
        helpers = list(probe._procs)
        time.sleep(2.0)
    assert all(helper.poll() is not None for helper in helpers)
    assert sorted(probe.samples) == cpus
    for seconds in probe.kernel_s.values():
        assert len(seconds) >= hostspeed.MIN_SAMPLES
        assert all(value > 0.0 for value in seconds)


def test_probe_scales_by_the_mean_of_per_core_medians():
    ref = hostspeed.REFERENCE_S
    probe = hostspeed.Probe([0, 1])
    probe.samples = {
        0: [(t, 2 * ref) for t in range(10)] + [(t, 3 * ref) for t in range(10, 20)]
        + [(12.5, 90 * ref)],
        1: [(t + 0.5, 4 * ref) for t in range(20)],
    }
    # A unit is scaled by the samples taken while it ran ...
    assert probe.slowdown(0.0, 9.2) == pytest.approx((2.0 + 4.0) / 2)
    assert probe.scale(10.0, 16.0) == pytest.approx(6.0 / 3.5)
    # ... and a unit too short for enough of them by the nearest ones.
    assert probe.slowdown(9.4, 9.6) == pytest.approx(3.0)


def test_probe_stops_its_helpers_when_the_phase_fails():
    with pytest.raises(KeyError):
        with hostspeed.Probe([min(os.sched_getaffinity(0))]) as probe:
            helpers = list(probe._procs)
            raise KeyError("phase failed")
    assert helpers and all(helper.poll() is not None for helper in helpers)


def test_only_the_campaign_env_caps_blas_threads():
    pinned = hostenv.child_env(one_blas_thread=True)
    assert all(pinned[k] == "1" for k in hostenv.ONE_BLAS_THREAD)
    assert pinned["PYTHONHASHSEED"] == hostenv.HASH_SEED
    default = hostenv.child_env()
    assert all(default.get(k) == os.environ.get(k) for k in hostenv.ONE_BLAS_THREAD)


# -- spans ---------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "core.run_one", 0.0, 10.0, None, "job1", {}),
        Span(2, "platforms.create_model", 1.0, 4.0, 1, "job1", {}),
        Span(3, "platforms.batch_predict", 3.0, 6.0, 1, "job1", {}),
        Span(4, "platforms.delete_dataset", 9.0, 12.0, 1, "job1", {}),
    ]
    totals = self_times(spans)
    assert totals["core.run_one"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["platforms.create_model"] == pytest.approx(3.0)


def test_tracer_links_parents_and_dumps_jsonl(tmp_path):
    tracer = Tracer()
    with tracer.span("core.run_one", trace="job7"):
        with tracer.span("platforms.get_model", platform="abm"):
            pass
    child, root = tracer.spans
    assert child.parent == root.span_id and child.trace == "job7"
    tracer.dump(tmp_path / "t.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [row["name"] for row in rows] == ["core.run_one", "platforms.get_model"]


# -- inputs --------------------------------------------------------------

def _campaign_slice(seed):
    from repro.datasets.corpus import load_dataset
    from repro.datasets.registry import get_spec

    return [load_dataset(dataclasses.replace(get_spec(name), seed=value),
                         size_cap=inputs.CAMPAIGN_SIZE_CAP,
                         feature_cap=inputs.CAMPAIGN_FEATURE_CAP)
            for name, value in inputs.campaign_seeds(seed).items()]


def test_campaign_inputs_are_seeded_and_fixed_in_shape():
    first, again, other = _campaign_slice(4), _campaign_slice(4), _campaign_slice(5)
    for a, b, c in zip(first, again, other):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        assert a.name == c.name and a.X.shape == c.X.shape
        assert not np.array_equal(a.X, c.X)
        assert set(np.unique(a.y)) == {0, 1} and np.bincount(a.y).min() >= 10


def test_serve_sessions_walk_the_fixed_cycle():
    shape = dict(clients=2, rows=20, features=3, predicts=2, query_rows=4)
    a = inputs.serve_session(1, 0, 3, **shape)
    b = inputs.serve_session(2, 0, 3, **shape)
    assert (a.platform, a.classifier) == (b.platform, b.classifier)
    assert not np.array_equal(a.X, b.X)
    assert inputs.serve_session(1, 1, 0, **shape).platform == \
        inputs.SERVE_CYCLE[len(inputs.SERVE_CYCLE) // 2][0]


# -- BENCHMARK.json ------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keeps_the_contract_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- smoke ---------------------------------------------------------------

@pytest.mark.parametrize("workload", ["campaign", "serve", "check"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in expected]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
