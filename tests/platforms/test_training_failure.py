"""Tests for the structured TrainingFailure record on failed jobs."""

import numpy as np
import pytest

from repro.exceptions import JobFailedError, ValidationError
from repro.learn.linear import LogisticRegression
from repro.platforms import ABM, Amazon, Google
from repro.platforms.base import JobState, TrainingFailure


@pytest.fixture()
def data(linear_data):
    X_train, y_train, _, _ = linear_data
    return X_train, y_train


class _ExplodingEstimator(LogisticRegression):
    """Estimator whose fit raises a configurable exception."""

    def __init__(self, exc=None, **kwargs):
        super().__init__(**kwargs)
        self.exc = exc

    def fit(self, X, y):
        raise self.exc


def test_deleted_dataset_failure_is_structured(data):
    X, y = data
    platform = Google(synchronous=False)
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(dataset_id)
    platform.delete_dataset(dataset_id)
    platform.process_one_job()
    handle = platform.get_model(model_id)
    assert handle.state is JobState.FAILED
    failure = handle.failure_reason
    assert isinstance(failure, TrainingFailure)
    assert failure.stage == "queue"
    assert failure.kind == "ResourceNotFoundError"
    # str-compatibility: renders and substring-matches like the old string.
    assert "deleted" in failure
    assert "deleted" in str(failure)


def test_fit_failure_records_stage_kind_and_detail(data, monkeypatch):
    X, y = data
    platform = Google()
    exploding = _ExplodingEstimator(exc=ValidationError("bad fold geometry"))
    monkeypatch.setattr(
        platform, "_assemble", lambda handle, X, y: exploding
    )
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(dataset_id)
    handle = platform.get_model(model_id)
    assert handle.state is JobState.FAILED
    failure = handle.failure_reason
    assert failure.stage == "fit"
    assert failure.kind == "ValidationError"
    assert failure.detail == "bad fold geometry"
    assert failure.to_dict() == {
        "stage": "fit",
        "kind": "ValidationError",
        "detail": "bad fold geometry",
    }


def test_assemble_failure_records_assemble_stage(data, monkeypatch):
    X, y = data

    def broken_assemble(handle, X, y):
        raise ValueError("unbuildable configuration")

    platform = Google()
    monkeypatch.setattr(platform, "_assemble", broken_assemble)
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(dataset_id)
    failure = platform.get_model(model_id).failure_reason
    assert failure.stage == "assemble"
    assert failure.kind == "ValueError"


def test_failure_reason_renders_in_batch_predict_error(data, monkeypatch):
    X, y = data
    platform = Google()
    exploding = _ExplodingEstimator(exc=ValidationError("needs two classes"))
    monkeypatch.setattr(platform, "_assemble", lambda handle, X, y: exploding)
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(dataset_id)
    with pytest.raises(JobFailedError) as excinfo:
        platform.batch_predict(model_id, X)
    assert "needs two classes" in str(excinfo.value)


def test_programming_errors_propagate_instead_of_failing_the_job(
    data, monkeypatch
):
    # A TypeError is a bug in the simulator, not a property of the
    # configuration: the narrowed handler must let it surface.
    X, y = data
    platform = Google()
    exploding = _ExplodingEstimator(exc=TypeError("simulator bug"))
    monkeypatch.setattr(platform, "_assemble", lambda handle, X, y: exploding)
    dataset_id = platform.upload_dataset(X, y)
    with pytest.raises(TypeError, match="simulator bug"):
        platform.create_model(dataset_id)


def test_numerical_breakdown_fails_the_job(data, monkeypatch):
    X, y = data
    platform = Google()
    exploding = _ExplodingEstimator(
        exc=np.linalg.LinAlgError("singular matrix")
    )
    monkeypatch.setattr(platform, "_assemble", lambda handle, X, y: exploding)
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(dataset_id)
    failure = platform.get_model(model_id).failure_reason
    assert failure.kind == "LinAlgError"
    assert "singular" in failure


@pytest.mark.parametrize("platform_class", [Google, ABM, Amazon])
def test_single_class_training_data_fails_the_black_box_job(
    data, platform_class
):
    # Automatic classifier selection cannot cross-validate one class:
    # the job FAILs with a ValidationError instead of raising IndexError
    # out of create_model.
    X, _ = data
    platform = platform_class()
    dataset_id = platform.upload_dataset(X, np.zeros(X.shape[0], dtype=int))
    model_id = platform.create_model(dataset_id)
    handle = platform.get_model(model_id)
    assert handle.state is JobState.FAILED
    assert handle.failure_reason.stage == "assemble"
    assert handle.failure_reason.kind == "ValidationError"
    assert "both classes" in handle.failure_reason
