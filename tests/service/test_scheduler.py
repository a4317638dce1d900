"""Tests for the thread executor of the campaign driver (``workers > 1``)."""

import pytest

from repro.core import Configuration, ExperimentRunner, MLaaSStudy, StudyScale
from repro.core.config_space import baseline_configuration
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.exceptions import ValidationError
from repro.platforms import ALL_PLATFORMS, Amazon, Google
from repro.service import (
    RetryPolicy,
    Telemetry,
    VirtualClock,
    build_campaign,
    run_campaign,
    scheduler,
)


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


def _campaign_baseline(platform_classes, corpus, workers, seed=0, **kwargs):
    platforms = [cls(random_state=seed) for cls in platform_classes]
    telemetry = Telemetry()
    store = run_campaign(
        ExperimentRunner(split_seed=7), platforms, corpus,
        {p.name: [baseline_configuration(p)] for p in platforms},
        workers=workers, seed=seed, telemetry=telemetry, **kwargs,
    )
    return store, telemetry


def test_build_campaign_enumerates_serial_order(corpus):
    platforms = [Google(random_state=0), Amazon(random_state=0)]
    configurations = {
        "google": [baseline_configuration(platforms[0])],
        "amazon": [baseline_configuration(platforms[1])],
    }
    jobs = build_campaign(platforms, corpus, configurations)
    assert [j.index for j in jobs] == list(range(6))
    assert [j.platform_name for j in jobs] == ["google"] * 3 + ["amazon"] * 3
    assert [j.dataset.name for j in jobs[:3]] == [d.name for d in corpus]


def test_build_campaign_requires_configurations_for_every_platform(corpus):
    with pytest.raises(ValidationError, match="no configurations"):
        build_campaign([Google(random_state=0)], corpus, {"amazon": []})


def test_campaign_matches_serial_sweep_bit_for_bit(corpus):
    serial = _serial_baseline(ALL_PLATFORMS, corpus)
    for workers in (1, 4):
        concurrent, telemetry = _campaign_baseline(
            ALL_PLATFORMS, corpus, workers=workers
        )
        assert list(concurrent) == list(serial), f"workers={workers}"
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["jobs_total"] == len(serial)
        assert snapshot["counters"]["jobs_failed"] == sum(
            1 for r in serial if not r.ok
        )


def test_campaign_multi_config_sweep_matches_serial(corpus):
    configurations = [
        Configuration.make(classifier="LR", params={"maxIter": 10}),
        Configuration.make(classifier="LR", params={"maxIter": 1000}),
        Configuration.make(classifier="LR", params={"regParam": 1.0}),
    ]
    runner = ExperimentRunner(split_seed=7)
    serial = runner.sweep(Amazon(random_state=0), corpus, configurations)

    concurrent = run_campaign(
        ExperimentRunner(split_seed=7), [Amazon(random_state=0)], corpus,
        configurations,  # plain sequence: applied to every platform
        workers=3,
    )
    assert list(concurrent) == list(serial)


def test_campaign_retries_quota_errors_and_completes(corpus):
    clock = VirtualClock()
    platform = Google(random_state=0, rate_limit_per_minute=3, clock=clock)
    telemetry = Telemetry()
    store = run_campaign(
        ExperimentRunner(split_seed=7), [platform], corpus,
        {"google": [baseline_configuration(platform)]},
        workers=2, clock=clock, seed=0, telemetry=telemetry,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=8.0),
    )
    assert len(store) == len(corpus)
    assert all(result.ok for result in store)
    snapshot = telemetry.snapshot()
    assert snapshot["platforms"]["google"]["errors"]["QuotaExceededError"] >= 1
    assert snapshot["counters"]["retries_total"] >= 1
    assert clock.total_slept > 0  # quota windows were waited out virtually


def test_campaign_checkpoint_and_resume_roundtrip(tmp_path, corpus):
    platforms = [Google, Amazon]
    uninterrupted, _ = _campaign_baseline(platforms, corpus, workers=2)

    checkpoint = tmp_path / "campaign.json"
    partial, _ = _campaign_baseline(
        [Google], corpus, workers=2,
    )
    partial.save(checkpoint)

    resumed, telemetry = _campaign_baseline(
        platforms, corpus, workers=2,
        resume_from=ResultStore.load(checkpoint),
        checkpoint_path=checkpoint, checkpoint_every=1,
    )
    assert [r.to_dict() for r in resumed] == \
           [r.to_dict() for r in uninterrupted]
    # Only the amazon half was measured; the google half was resumed.
    assert telemetry.counter_value("jobs_resumed") == len(corpus)
    # The final checkpoint holds the full campaign.
    assert len(ResultStore.load(checkpoint)) == len(resumed)


def test_campaign_worker_exceptions_propagate(corpus):
    class Exploding(Amazon):
        def upload_dataset(self, X, y, name="dataset"):
            raise RuntimeError("boom: programming error, not a PlatformError")

    platform = Exploding(random_state=0)
    with pytest.raises(RuntimeError, match="boom"):
        run_campaign(
            ExperimentRunner(split_seed=7), [platform], corpus,
            {"amazon": [baseline_configuration(platform)]}, workers=2,
        )


def test_dispatch_crash_still_joins_every_worker(corpus, monkeypatch):
    # Regression: a failure in the dispatch loop itself (not in a
    # worker) must still send the queue sentinels and join the worker
    # threads, or each crashed campaign leaks its whole pool.
    import threading

    def exploding_dispatch(pending, busy, cursor, tasks):
        raise RuntimeError("boom: dispatcher failure")

    monkeypatch.setattr(scheduler, "_dispatch", exploding_dispatch)
    platform = Amazon(random_state=0)
    with pytest.raises(RuntimeError, match="boom: dispatcher"):
        run_campaign(
            ExperimentRunner(split_seed=7), [platform], corpus,
            {"amazon": [baseline_configuration(platform)]}, workers=3,
        )
    leftovers = [t for t in threading.enumerate()
                 if t.name.startswith("campaign-worker")]
    for thread in leftovers:
        thread.join(timeout=5)
    assert not any(t.is_alive() for t in leftovers), \
        "campaign worker thread(s) leaked after a dispatcher crash"


def test_scheduler_validates_parameters(corpus):
    platform = Amazon(random_state=0)
    for bad in ({"workers": 0}, {"processes": 0}, {"checkpoint_every": 0},
                {"workers": 2, "processes": 2}):
        with pytest.raises(ValidationError):
            run_campaign(
                ExperimentRunner(split_seed=7), [platform], corpus,
                {"amazon": [baseline_configuration(platform)]}, **bad,
            )


def test_study_workers_produce_identical_stores():
    scale = StudyScale.tiny()
    serial = MLaaSStudy(scale=scale, random_state=3).run_baseline()
    study = MLaaSStudy(scale=scale, random_state=3, workers=4)
    concurrent = study.run_baseline()
    assert list(concurrent) == list(serial)
    assert study.telemetry is not None
    assert study.telemetry.counter_value("jobs_total") == len(serial)


def test_study_per_control_campaign_matches_serial():
    scale = StudyScale.tiny()
    serial = MLaaSStudy(scale=scale, random_state=1).run_per_control("CLF")
    concurrent = MLaaSStudy(
        scale=scale, random_state=1, workers=4
    ).run_per_control("CLF")
    assert list(concurrent) == list(serial)


def test_study_run_campaign_checkpoints(tmp_path):
    scale = StudyScale.tiny()
    checkpoint = tmp_path / "study-campaign.json"
    study = MLaaSStudy(scale=scale, random_state=2, workers=4)
    store = study.run_campaign(
        protocol="baseline", checkpoint_path=checkpoint, checkpoint_every=5,
    )
    assert checkpoint.exists()
    assert len(ResultStore.load(checkpoint)) == len(store)


def test_study_rejects_bad_workers():
    with pytest.raises(ValidationError):
        MLaaSStudy(workers=0)
