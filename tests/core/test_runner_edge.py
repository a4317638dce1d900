"""Edge-case runner behaviours: quotas, rate limits, metadata."""

import numpy as np
import pytest

from repro.core import Configuration, ExperimentRunner
from repro.datasets import load_dataset
from repro.datasets.corpus import SplitDataset
from repro.exceptions import PlatformError
from repro.platforms import BigML, Google


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("synthetic/linear", size_cap=150)


def test_rate_limited_platform_records_failures(dataset):
    # Five API calls per measurement (upload/create/poll/predict/delete —
    # status polls are metered like every other request): a quota of 5
    # lets the first measurement through and fails the second cleanly.
    class Clock:
        def __call__(self):
            return 0.0

    platform = Google(random_state=0, rate_limit_per_minute=5, clock=Clock())
    runner = ExperimentRunner(split_seed=0)
    first = runner.run_one(platform, dataset, Configuration.make())
    second = runner.run_one(platform, dataset, Configuration.make())
    assert first.ok
    assert not second.ok
    assert "rate limit" in second.failure_reason


def test_upload_quota_records_failure(dataset):
    platform = Google(random_state=0)
    platform.max_upload_samples = 10
    runner = ExperimentRunner(split_seed=0)
    result = runner.run_one(platform, dataset, Configuration.make())
    assert not result.ok
    assert "rejects uploads" in result.failure_reason


def test_result_metadata_carries_job_accounting(dataset):
    runner = ExperimentRunner(split_seed=0)
    result = runner.run_one(Google(random_state=0), dataset, Configuration.make())
    assert result.metadata["training_seconds"] >= 0.0
    assert result.metadata["n_predictions"] == len(runner.split(dataset).y_test)
    assert result.metadata["n_training_samples"] == len(runner.split(dataset).y_train)
    assert isinstance(result.metadata["job_seed"], int)


def test_identical_measurements_are_reproducible(dataset):
    runner = ExperimentRunner(split_seed=0)
    a = runner.run_one(Google(random_state=5), dataset, Configuration.make())
    b = runner.run_one(Google(random_state=5), dataset, Configuration.make())
    assert a.metrics == b.metrics
    assert a.metadata["job_seed"] == b.metadata["job_seed"]


def _single_class_split():
    """A split whose training labels hold one class: every job fails."""
    rng = np.random.default_rng(4)
    return SplitDataset(
        name="degenerate/single-class",
        X_train=rng.standard_normal((20, 3)),
        X_test=rng.standard_normal((6, 3)),
        y_train=np.zeros(20, dtype=np.intp),
        y_test=np.zeros(6, dtype=np.intp),
    )


class _PredictOutage(Google):
    """Google whose trained models cannot be queried."""

    def batch_predict(self, model_id, X):
        raise PlatformError("synthetic prediction outage")


@pytest.mark.parametrize("platform_class,split_of,reason", [
    # The job itself fails: run_one returns early with the job's reason.
    (BigML, lambda dataset: _single_class_split(), "class"),
    # The job trains but the predict call raises a PlatformError.
    (_PredictOutage, None, "prediction outage"),
])
def test_failed_measurement_leaves_no_server_state(dataset, platform_class,
                                                   split_of, reason):
    platform = platform_class(random_state=0)
    runner = ExperimentRunner(split_seed=0)
    split = split_of(dataset) if split_of is not None else None
    result = runner.run_one(platform, dataset, Configuration.make(),
                            split=split)
    assert not result.ok
    assert reason in result.failure_reason
    assert platform.list_datasets() == []
    assert platform.list_models() == []
