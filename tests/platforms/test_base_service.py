"""Tests for the platform service API (resources, jobs, quotas)."""

import numpy as np
import pytest

from repro.exceptions import (
    JobFailedError,
    QuotaExceededError,
    ResourceNotFoundError,
    UnsupportedControlError,
    ValidationError,
)
from repro.platforms import (
    ALL_PLATFORMS,
    Amazon,
    Google,
    LocalLibrary,
    Microsoft,
    make_platform,
)
from repro.platforms.base import JobState, ParameterSpec


@pytest.fixture()
def data(linear_data):
    X_train, y_train, X_test, _ = linear_data
    return X_train, y_train, X_test


def test_upload_returns_unique_ids(data):
    X, y, _ = data
    platform = Google()
    first = platform.upload_dataset(X, y)
    second = platform.upload_dataset(X, y)
    assert first != second
    assert set(platform.list_datasets()) == {first, second}


def test_delete_dataset(data):
    X, y, _ = data
    platform = Google()
    dataset_id = platform.upload_dataset(X, y)
    platform.delete_dataset(dataset_id)
    assert platform.list_datasets() == []
    with pytest.raises(ResourceNotFoundError):
        platform.delete_dataset(dataset_id)


def test_upload_quota(data):
    X, y, _ = data
    platform = Google()
    platform.max_upload_samples = 10
    with pytest.raises(QuotaExceededError):
        platform.upload_dataset(X, y)


def test_create_model_unknown_dataset():
    platform = Google()
    with pytest.raises(ResourceNotFoundError):
        platform.create_model("google-ds-999")


def test_model_lifecycle_completed(data):
    X, y, X_test = data
    platform = Microsoft()
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(dataset_id, classifier="BST")
    handle = platform.get_model(model_id)
    assert handle.state is JobState.COMPLETED
    predictions = platform.batch_predict(model_id, X_test)
    assert predictions.shape == (X_test.shape[0],)


def test_get_model_unknown_id():
    with pytest.raises(ResourceNotFoundError):
        Google().get_model("nope")


def test_blackbox_rejects_classifier_choice(data):
    X, y, _ = data
    platform = Google()
    dataset_id = platform.upload_dataset(X, y)
    with pytest.raises(UnsupportedControlError, match="black-box"):
        platform.create_model(dataset_id, classifier="LR")


def test_amazon_rejects_feature_selection(data):
    X, y, _ = data
    platform = Amazon()
    dataset_id = platform.upload_dataset(X, y)
    with pytest.raises(UnsupportedControlError, match="feature selection"):
        platform.create_model(dataset_id, feature_selection="filter_pearson")


def test_unknown_classifier_rejected(data):
    X, y, _ = data
    platform = Microsoft()
    dataset_id = platform.upload_dataset(X, y)
    with pytest.raises(UnsupportedControlError, match="not offered"):
        platform.create_model(dataset_id, classifier="KNN")  # not on Azure


def test_unknown_parameter_rejected(data):
    X, y, _ = data
    platform = Amazon()
    dataset_id = platform.upload_dataset(X, y)
    with pytest.raises(UnsupportedControlError, match="no parameter"):
        platform.create_model(dataset_id, classifier="LR", params={"bogus": 1})


def test_unknown_feature_selector_rejected(data):
    X, y, _ = data
    platform = Microsoft()
    dataset_id = platform.upload_dataset(X, y)
    with pytest.raises(UnsupportedControlError, match="feature selector"):
        platform.create_model(dataset_id, feature_selection="pca")


def test_defaults_merged_with_user_params(data):
    X, y, _ = data
    platform = Amazon()
    dataset_id = platform.upload_dataset(X, y)
    model_id = platform.create_model(
        dataset_id, classifier="LR", params={"maxIter": 3}
    )
    handle = platform.get_model(model_id)
    assert handle.params["maxIter"] == 3
    assert handle.params["regParam"] == 1e-2   # default preserved
    assert handle.params["shuffleType"] == "auto"


def test_failed_job_is_reported_not_raised(data):
    X, y, X_test = data
    platform = LocalLibrary()
    dataset_id = platform.upload_dataset(X, y)
    # n_neighbors > n_samples is invalid at training time -> job FAILED.
    model_id = platform.create_model(
        dataset_id, classifier="KNN", params={"n_neighbors": -1}
    )
    handle = platform.get_model(model_id)
    assert handle.state is JobState.FAILED
    assert handle.failure_reason
    with pytest.raises(JobFailedError):
        platform.batch_predict(model_id, X_test)


def test_parameter_spec_default_must_be_in_grid():
    with pytest.raises(Exception):
        ParameterSpec("x", 5, (1, 2, 3))


def test_make_platform_by_name():
    assert make_platform("google").name == "google"
    assert make_platform("local").name == "local"
    with pytest.raises(KeyError):
        make_platform("watson")


def test_job_seed_is_process_independent(data):
    X, y, _ = data
    # crc32-derived seeds: the same call sequence gives the same model id
    # and hence the same seed on any machine.
    a, b = Microsoft(random_state=1), Microsoft(random_state=1)
    ds_a, ds_b = a.upload_dataset(X, y), b.upload_dataset(X, y)
    model_a = a.create_model(ds_a, classifier="RF")
    model_b = b.create_model(ds_b, classifier="RF")
    probe = X[:10]
    assert np.array_equal(
        a.batch_predict(model_a, probe), b.batch_predict(model_b, probe)
    )


def test_job_seed_independent_of_call_order(data):
    # Training the same data with the same configuration must yield the
    # identical model no matter how many unrelated jobs ran before —
    # otherwise baseline and optimized protocols would disagree on
    # black-box platforms.
    X, y, X_test = data
    fresh = Microsoft(random_state=2)
    ds = fresh.upload_dataset(X, y)
    first = fresh.create_model(ds, classifier="RF")

    busy = Microsoft(random_state=2)
    ds_busy = busy.upload_dataset(X, y)
    for _ in range(3):  # unrelated jobs advance the model counter
        busy.create_model(ds_busy, classifier="LR")
    later = busy.create_model(ds_busy, classifier="RF")

    assert np.array_equal(
        fresh.batch_predict(first, X_test),
        busy.batch_predict(later, X_test),
    )


def test_repr_mentions_controls():
    assert "FEAT" in repr(Microsoft())
    assert "none" in repr(Google())


PLATFORM_CLASSIFIERS = [
    (cls.name, option.abbr if option else None)
    for cls in ALL_PLATFORMS
    for option in (cls().controls.classifiers or (None,))
]


@pytest.mark.parametrize("platform_name,classifier", PLATFORM_CLASSIFIERS)
def test_wrong_width_batch_predict_is_a_validation_error(
    data, platform_name, classifier
):
    X, y, X_test = data
    platform = make_platform(platform_name)
    model_id = platform.create_model(
        platform.upload_dataset(X, y), classifier=classifier
    )
    with pytest.raises(ValidationError, match="features"):
        platform.batch_predict(model_id, X_test[:, :2])
