"""Contract tests every classifier in the registry must satisfy.

These are the invariants the platform simulators and the measurement
harness rely on: deterministic fitting under a fixed seed, label-type
preservation, shape correctness, proper NotFitted behaviour, and
predict_proba validity where offered.
"""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.learn import CLASSIFIER_REGISTRY
from repro.learn.base import clone

FAST_PARAMS = {
    "RF": {"n_estimators": 10},
    "BST": {"n_estimators": 10},
    "BAG": {"n_estimators": 5},
    "DJ": {"n_dags": 3, "max_depth": 4, "max_width": 8, "merge_rounds": 16},
    "MLP": {"max_iter": 30, "hidden_layer_sizes": (8,)},
    "BPM": {"n_members": 3, "n_iter": 10},
}


def build(abbr, **extra):
    cls = CLASSIFIER_REGISTRY[abbr]
    kwargs = dict(FAST_PARAMS.get(abbr, {}))
    kwargs.update(extra)
    if "random_state" in cls._param_names():
        kwargs.setdefault("random_state", 0)
    return cls(**kwargs)


ALL = sorted(CLASSIFIER_REGISTRY)


@pytest.mark.parametrize("abbr", ALL)
def test_fit_returns_self_and_predict_shape(abbr, linear_data):
    X_train, y_train, X_test, _ = linear_data
    model = build(abbr)
    assert model.fit(X_train, y_train) is model
    predictions = model.predict(X_test)
    assert np.asarray(predictions).shape == (X_test.shape[0],)


@pytest.mark.parametrize("abbr", ALL)
def test_classes_attribute_sorted(abbr, linear_data):
    X_train, y_train, _, _ = linear_data
    model = build(abbr).fit(X_train, y_train)
    assert model.classes_.tolist() == [0, 1]


@pytest.mark.parametrize("abbr", ALL)
def test_predictions_are_training_labels(abbr, linear_data):
    X_train, y_train, X_test, _ = linear_data
    shifted = y_train * 2 + 5  # labels {5, 7}
    model = build(abbr).fit(X_train, shifted)
    predictions = np.asarray(model.predict(X_test))
    assert set(np.unique(predictions)) <= {5, 7}


@pytest.mark.parametrize("abbr", ALL)
def test_better_than_chance_on_separable_data(abbr, linear_data):
    X_train, y_train, X_test, y_test = linear_data
    model = build(abbr).fit(X_train, y_train)
    assert model.score(X_test, y_test) > 0.7


@pytest.mark.parametrize("abbr", ALL)
def test_unfitted_predict_raises(abbr, linear_data):
    _, _, X_test, _ = linear_data
    model = build(abbr)
    with pytest.raises((NotFittedError, ValidationError)):
        model.predict(X_test)


@pytest.mark.parametrize("abbr", ALL)
def test_deterministic_given_seed(abbr, noisy_linear_data):
    X_train, y_train, X_test, _ = noisy_linear_data
    first = build(abbr).fit(X_train, y_train).predict(X_test)
    second = build(abbr).fit(X_train, y_train).predict(X_test)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("abbr", ALL)
def test_rejects_single_class_training(abbr):
    X = np.random.default_rng(0).normal(size=(20, 3))
    y = np.zeros(20, dtype=int)
    with pytest.raises(ValidationError):
        build(abbr).fit(X, y)


@pytest.mark.parametrize("abbr", ALL)
def test_feature_count_mismatch_rejected(abbr, linear_data):
    X_train, y_train, X_test, _ = linear_data
    model = build(abbr).fit(X_train, y_train)
    with pytest.raises(ValidationError):
        model.predict(X_test[:, :2])


@pytest.mark.parametrize("abbr", ALL)
def test_clone_preserves_params(abbr):
    model = build(abbr)
    cloned = clone(model)
    assert cloned.get_params() == model.get_params()


PROBA = [a for a in ALL if hasattr(CLASSIFIER_REGISTRY[a], "predict_proba")]


@pytest.mark.parametrize("abbr", PROBA)
def test_predict_proba_rows_sum_to_one(abbr, linear_data):
    X_train, y_train, X_test, _ = linear_data
    model = build(abbr).fit(X_train, y_train)
    probabilities = model.predict_proba(X_test)
    assert probabilities.shape == (X_test.shape[0], 2)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    assert np.all(probabilities >= 0.0)
    assert np.all(probabilities <= 1.0)


@pytest.mark.parametrize("abbr", ALL)
def test_handles_list_inputs(abbr, linear_data):
    X_train, y_train, X_test, _ = linear_data
    model = build(abbr).fit(X_train.tolist(), y_train.tolist())
    predictions = model.predict(X_test.tolist())
    assert len(predictions) == X_test.shape[0]
