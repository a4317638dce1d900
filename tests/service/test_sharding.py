"""Tests for the process executor of the campaign driver (``processes > 1``)."""

import json
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
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
from repro.service import Telemetry, VirtualClock, campaign, run_campaign
from repro.service.sharding import DEFERRED_IMPORTS
from tests.service.test_campaign import KillOnUpload

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
from repro.service import campaign, sharding


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
store = campaign.run_campaign(
    ExperimentRunner(split_seed=7), [platform], corpus,
    {platform.name: [baseline_configuration(platform)]}, processes=2,
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


@pytest.fixture()
def pool_even_for_one(monkeypatch):
    """Run ``processes=1`` through the pool too, not the inline executor."""
    monkeypatch.setattr(campaign, "_executor",
                        lambda workers, processes: ("processes", processes))


def _sharded_baseline(platform_classes, corpus, processes, seed=0,
                      telemetry=None, **kwargs):
    platforms = [cls(random_state=seed) for cls in platform_classes]
    telemetry = telemetry if telemetry is not None else Telemetry()
    store = run_campaign(
        ExperimentRunner(split_seed=7), platforms, corpus,
        {p.name: [baseline_configuration(p)] for p in platforms},
        processes=processes, telemetry=telemetry, **kwargs,
    )
    return store, telemetry


def test_process_campaign_matches_serial_bit_for_bit(tmp_path, corpus,
                                                     pool_even_for_one):
    serial = _serial_baseline(ALL_PLATFORMS, corpus)
    for processes in (1, 2):
        sharded, telemetry = _sharded_baseline(
            ALL_PLATFORMS, corpus, processes=processes
        )
        assert list(sharded) == list(serial), f"processes={processes}"
        counters = telemetry.snapshot()["counters"]
        assert counters["jobs_total"] == counters["jobs_done"] == len(serial)
        assert counters["shards_done"] == counters["shards_total"] \
            == len(corpus)
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
    telemetry = Telemetry()
    store = run_campaign(
        ExperimentRunner(split_seed=7), [local(random_state=0)], corpus,
        {"local": configs}, processes=2, telemetry=telemetry,
    )
    assert len(list(store)) == len(configs) * len(corpus)
    counters = telemetry.snapshot()["counters"]
    # One feature-step fit per dataset shard, replayed for the other
    # candidates of that shard.
    assert counters["fit_cache_misses"] == len(corpus)
    assert counters["fit_cache_hits"] == (len(configs) - 1) * len(corpus)


def test_kill_then_resume_matches_uninterrupted_serial(tmp_path, corpus,
                                                       monkeypatch):
    # A pool worker is SIGKILLed as it uploads the last dataset, which a
    # worker only takes after finishing one of the first two shards: the
    # parent sees BrokenProcessPool, checkpoints what landed, re-raises.
    platform_classes = [Google, KillOnUpload, BigML]
    serial = _serial_baseline(platform_classes, corpus)
    monkeypatch.setattr(KillOnUpload, "kill_on", corpus[-1].name)
    checkpoint = tmp_path / "campaign.json"
    with pytest.raises(BrokenProcessPool):
        _sharded_baseline(platform_classes, corpus, processes=2,
                          checkpoint_path=checkpoint, checkpoint_every=1)
    recovered = ResultStore.load(checkpoint)
    assert 0 < len(recovered) < len(serial)

    monkeypatch.setattr(KillOnUpload, "kill_on", None)
    resumed, telemetry = _sharded_baseline(
        platform_classes, corpus, processes=2,
        checkpoint_path=checkpoint, resume_from=recovered,
    )
    assert list(resumed) == list(serial)
    assert telemetry.counter_value("jobs_resumed") == len(recovered)
    serial_path = tmp_path / "serial.json"
    serial.save(serial_path)
    assert checkpoint.read_bytes() == serial_path.read_bytes()


def test_stitch_results_is_completion_order_independent(tmp_path, corpus,
                                                        monkeypatch):
    # The driver fills slots by serial index, so an executor that hands
    # results back in any order yields the serial store and bytes.
    serial = _serial_baseline([Google, Amazon], corpus)
    serial_path = tmp_path / "serial.json"
    serial.save(serial_path)
    for seed in range(3):
        def shuffled(jobs, measure, seed=seed):
            pairs = [(job.index, measure(job)) for job in jobs]
            random.Random(seed).shuffle(pairs)
            yield from pairs

        monkeypatch.setattr(campaign, "_inline", shuffled)
        checkpoint = tmp_path / f"shuffled-{seed}.json"
        store, _ = _sharded_baseline([Google, Amazon], corpus, processes=1,
                                     checkpoint_path=checkpoint)
        assert list(store) == list(serial)
        assert checkpoint.read_bytes() == serial_path.read_bytes()


def test_worker_exceptions_propagate_and_fail_the_shard(corpus):
    telemetry = Telemetry()
    with pytest.raises(RuntimeError, match="worker boom"):
        _sharded_baseline([ExplodingGoogle], corpus, processes=2,
                          telemetry=telemetry)
    assert telemetry.counter_value("shards_failed") >= 1


def test_engine_validates_parameters(corpus):
    with pytest.raises(ValidationError, match="processes"):
        _sharded_baseline([Google], corpus, processes=0)

    class LocalOnly(Google):
        pass

    with pytest.raises(ValidationError, match="module-level"):
        _sharded_baseline([LocalOnly], corpus, processes=2)

    clocked = BigML(random_state=0, clock=VirtualClock())
    with pytest.raises(ValidationError, match="clock"):
        run_campaign(
            ExperimentRunner(split_seed=7), [clocked], corpus,
            {"bigml": [baseline_configuration(clocked)]}, processes=2,
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
