"""Tests for the process-sharded campaign engine's determinism contract."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ExperimentRunner, MLaaSStudy, StudyScale
from repro.core.config_space import (
    baseline_configuration,
    enumerate_configurations,
)
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.exceptions import ValidationError
from repro.platforms import ALL_PLATFORMS, Amazon, BigML, Google
from repro.service import (
    ShardResult,
    ShardedCampaign,
    VirtualClock,
    merge_cache_stats,
    stitch_results,
)
from repro.service.sharding import DEFERRED_IMPORTS

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: A fresh interpreter runs a two-dataset baseline plan over two worker
#: processes and records which deferred modules the parent had loaded
#: before the run and when each pool was built.
PRE_FORK_SCRIPT = """
import json, sys
from concurrent.futures import ProcessPoolExecutor

from repro.core import ExperimentRunner
from repro.core.config_space import baseline_configuration
from repro.datasets import load_corpus
from repro.platforms import Amazon
from repro.service import sharding


def loaded():
    return [name for name in sharding.DEFERRED_IMPORTS if name in sys.modules]


at_pool = []


class RecordingPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_pool.append(loaded())
        super().__init__(*args, **kwargs)


sharding.ProcessPoolExecutor = RecordingPool
corpus = load_corpus(max_datasets=2, size_cap=60, feature_cap=4,
                     random_state=0)
platform = Amazon(random_state=0)
before = loaded()
store = sharding.ShardedCampaign(processes=2).run(
    ExperimentRunner(split_seed=7), [platform], corpus,
    {platform.name: [baseline_configuration(platform)]},
)
print(json.dumps({"before": before, "at_pool": at_pool, "jobs": len(store)}))
"""


class ExplodingGoogle(Google):
    """Module-level (hence picklable) platform that dies in the worker."""

    def upload_dataset(self, *args, **kwargs):
        raise RuntimeError("worker boom")


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(max_datasets=3, size_cap=120, feature_cap=8,
                       random_state=0)


def _serial_baseline(platform_classes, corpus, seed=0):
    runner = ExperimentRunner(split_seed=7)
    store = ResultStore()
    for cls in platform_classes:
        platform = cls(random_state=seed)
        store.extend(runner.sweep(
            platform, corpus, [baseline_configuration(platform)]
        ))
    return store


def _sharded_baseline(platform_classes, corpus, processes, seed=0, **kwargs):
    platforms = [cls(random_state=seed) for cls in platform_classes]
    engine = ShardedCampaign(processes=processes)
    store = engine.run(
        ExperimentRunner(split_seed=7), platforms, corpus,
        {p.name: [baseline_configuration(p)] for p in platforms},
        **kwargs,
    )
    return store, engine


def test_process_campaign_matches_serial_bit_for_bit(tmp_path, corpus):
    serial = _serial_baseline(ALL_PLATFORMS, corpus)
    for processes in (1, 2):
        sharded, engine = _sharded_baseline(
            ALL_PLATFORMS, corpus, processes=processes
        )
        assert list(sharded) == list(serial), f"processes={processes}"
        counters = engine.telemetry.snapshot()["counters"]
        assert counters["jobs_total"] == len(serial)
        assert counters["shards_done"] == counters["shards_total"] \
            == len(corpus)
        assert engine.dag.merge_ready()
    # Checkpoint files are byte-identical too: the saved JSON is the
    # serialized contract, not just the in-memory equality.
    serial_path, sharded_path = tmp_path / "serial.json", tmp_path / "s.json"
    serial.save(serial_path)
    sharded.save(sharded_path)
    assert serial_path.read_bytes() == sharded_path.read_bytes()


def test_shard_cache_is_shared_across_candidates(corpus):
    local = [cls for cls in ALL_PLATFORMS if cls.name == "local"][0]
    platform = local(random_state=0)
    configs = [c for c in enumerate_configurations(platform)
               if c.feature_selection == "f_classif"][:3]
    engine = ShardedCampaign(processes=2)
    store = engine.run(
        ExperimentRunner(split_seed=7), [local(random_state=0)], corpus,
        {"local": configs},
    )
    assert len(list(store)) == len(configs) * len(corpus)
    stats = engine.fit_cache_stats
    # One feature-step fit per dataset shard, replayed for the other
    # candidates of that shard.
    assert stats["misses"] == len(corpus)
    assert stats["hits"] == (len(configs) - 1) * len(corpus)
    counters = engine.telemetry.snapshot()["counters"]
    assert counters["fit_cache_hits"] == stats["hits"]


def test_kill_then_resume_matches_uninterrupted_serial(tmp_path, corpus):
    serial = _serial_baseline(ALL_PLATFORMS, corpus)
    checkpoint = tmp_path / "campaign.json"
    partial, first = _sharded_baseline(
        ALL_PLATFORMS, corpus, processes=2,
        checkpoint_path=checkpoint, max_shards=1,
    )
    # The budgeted run completed exactly one dataset shard and left a
    # loadable checkpoint behind (the kill stand-in).
    assert len(list(partial)) == len(ALL_PLATFORMS)
    assert first.dag.summary()["shards"]["done"] == 1
    recovered = ResultStore.load(checkpoint)
    assert list(recovered) == list(partial)

    resumed, second = _sharded_baseline(
        ALL_PLATFORMS, corpus, processes=2,
        checkpoint_path=checkpoint, resume_from=recovered,
    )
    assert list(resumed) == list(serial)
    counters = second.telemetry.snapshot()["counters"]
    assert counters["jobs_resumed"] == len(ALL_PLATFORMS)
    assert counters["shards_done"] == len(corpus) - 1
    assert list(ResultStore.load(checkpoint)) == list(serial)


def test_stitch_results_is_completion_order_independent():
    shard_results = [
        ShardResult(shard_id=i, dataset=f"d{i}",
                    results=((2 * i, f"r{2 * i}"), (2 * i + 1, f"r{2 * i + 1}")),
                    cache_stats={"entries": i, "hits": 2 * i, "misses": 1})
        for i in range(4)
    ]
    expected = [f"r{j}" for j in range(8)]
    for seed in range(5):
        shuffled = shard_results[:]
        random.Random(seed).shuffle(shuffled)
        assert stitch_results([None] * 8, shuffled) == expected
        merged = merge_cache_stats(
            {r.shard_id: r.cache_stats for r in shuffled}
        )
        assert merged == {"entries": 6, "hits": 12, "misses": 4}


def test_worker_exceptions_propagate_and_fail_the_shard(corpus):
    with pytest.raises(RuntimeError, match="worker boom"):
        _sharded_baseline([ExplodingGoogle], corpus, processes=2)


def test_engine_validates_parameters(corpus):
    with pytest.raises(ValidationError, match="processes"):
        ShardedCampaign(processes=0)
    with pytest.raises(ValidationError, match="max_inflight"):
        ShardedCampaign(max_inflight_per_worker=0)

    class LocalOnly(Google):
        pass

    with pytest.raises(ValidationError, match="module-level"):
        ShardedCampaign(processes=2).run(
            ExperimentRunner(split_seed=7),
            [LocalOnly(random_state=0)], corpus,
            {"google": [baseline_configuration(LocalOnly(random_state=0))]},
        )

    clocked = BigML(random_state=0, clock=VirtualClock())
    with pytest.raises(ValidationError, match="clock"):
        ShardedCampaign(processes=2).run(
            ExperimentRunner(split_seed=7), [clocked], corpus,
            {"bigml": [baseline_configuration(clocked)]},
        )


def test_study_routes_processes_through_sharded_engine():
    scale = StudyScale.tiny()
    serial = MLaaSStudy(
        platforms=[Amazon, BigML], scale=scale, random_state=3,
    ).run_baseline()
    processed = MLaaSStudy(
        platforms=[Amazon, BigML], scale=scale, random_state=3, processes=2,
    )
    store = processed.run_baseline()
    assert list(store) == list(serial)
    counters = processed.telemetry.snapshot()["counters"]
    assert counters["shards_done"] == scale.max_datasets


def test_study_rejects_conflicting_backends():
    with pytest.raises(ValidationError, match="not both"):
        MLaaSStudy(platforms=[BigML], workers=2, processes=2)
    with pytest.raises(ValidationError, match="clock"):
        MLaaSStudy(platforms=[BigML], processes=2, clock=VirtualClock())
    with pytest.raises(ValidationError, match="processes"):
        MLaaSStudy(platforms=[BigML], processes=0)


def test_process_pool_inherits_the_deferred_imports():
    # Forked workers inherit the parent's modules; without the parent's
    # import each pool's workers would import scipy again.
    proc = subprocess.run(
        [sys.executable, "-c", PRE_FORK_SCRIPT], capture_output=True,
        text=True, timeout=300,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["before"] == []
    assert record["at_pool"] == [list(DEFERRED_IMPORTS)]
    assert record["jobs"] == 2
