"""Tests for the one-vs-rest multi-class extension."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learn.linear import LogisticRegression
from repro.learn.multiclass import OneVsRestClassifier
from repro.learn.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def three_blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([
        center + rng.normal(size=(100, 2)) for center in centers
    ])
    y = np.repeat(["alpha", "beta", "gamma"], 100)
    order = rng.permutation(300)
    return X[order], y[order]


def test_learns_three_classes(three_blobs):
    X, y = three_blobs
    model = OneVsRestClassifier(LogisticRegression()).fit(X[:240], y[:240])
    assert model.score(X[240:], y[240:]) > 0.95


def test_classes_preserved(three_blobs):
    X, y = three_blobs
    model = OneVsRestClassifier(DecisionTreeClassifier(max_depth=4))
    model.fit(X, y)
    assert sorted(model.classes_) == ["alpha", "beta", "gamma"]
    assert set(model.predict(X[:20])) <= {"alpha", "beta", "gamma"}


def test_one_member_per_class(three_blobs):
    X, y = three_blobs
    model = OneVsRestClassifier(LogisticRegression()).fit(X, y)
    assert len(model.estimators_) == 3


def test_predict_proba_rows_sum_to_one(three_blobs):
    X, y = three_blobs
    model = OneVsRestClassifier(LogisticRegression()).fit(X, y)
    probabilities = model.predict_proba(X[:50])
    assert probabilities.shape == (50, 3)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    assert np.all(probabilities >= 0.0)


def test_binary_degenerates_gracefully():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 2))
    y = (X[:, 0] > 0).astype(int)
    model = OneVsRestClassifier(LogisticRegression()).fit(X, y)
    assert model.score(X, y) > 0.9


def test_single_class_rejected():
    X = np.random.default_rng(2).normal(size=(20, 2))
    with pytest.raises(ValidationError):
        OneVsRestClassifier(LogisticRegression()).fit(X, np.zeros(20))


def test_prototype_not_mutated(three_blobs):
    X, y = three_blobs
    prototype = LogisticRegression()
    OneVsRestClassifier(prototype).fit(X, y)
    assert not hasattr(prototype, "coef_")


@pytest.mark.parametrize("method", ["predict", "predict_proba"])
def test_wrong_width_rejected_before_the_members(three_blobs, method):
    X, y = three_blobs
    model = OneVsRestClassifier(LogisticRegression()).fit(X, y)
    with pytest.raises(ValidationError, match="fitted on 2 features, got 1"):
        getattr(model, method)(X[:5, :1])
