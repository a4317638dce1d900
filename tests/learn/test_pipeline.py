"""Tests for Pipeline composition."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.learn.feature_selection import SelectKBest
from repro.learn.linear import LogisticRegression
from repro.learn.pipeline import Pipeline
from repro.learn.preprocessing import StandardScaler


def test_pipeline_chains_transform_then_classify(linear_data):
    X_train, y_train, X_test, y_test = linear_data
    pipeline = Pipeline([
        ("scale", StandardScaler()),
        ("select", SelectKBest(scorer="f_classif", k=3)),
        ("classify", LogisticRegression()),
    ]).fit(X_train, y_train)
    assert pipeline.score(X_test, y_test) > 0.85


def test_pipeline_clones_steps(linear_data):
    X_train, y_train, _, _ = linear_data
    scaler = StandardScaler()
    pipeline = Pipeline([("scale", scaler), ("clf", LogisticRegression())])
    pipeline.fit(X_train, y_train)
    # The prototype step must remain unfitted.
    assert not hasattr(scaler, "mean_")


def test_pipeline_exposes_classes(linear_data):
    X_train, y_train, _, _ = linear_data
    pipeline = Pipeline([("clf", LogisticRegression())]).fit(X_train, y_train)
    assert pipeline.classes_.tolist() == [0, 1]


def test_pipeline_predict_proba_delegates(linear_data):
    X_train, y_train, X_test, _ = linear_data
    pipeline = Pipeline([
        ("scale", StandardScaler()),
        ("clf", LogisticRegression()),
    ]).fit(X_train, y_train)
    probabilities = pipeline.predict_proba(X_test)
    assert np.allclose(probabilities.sum(axis=1), 1.0)


def test_empty_pipeline_rejected():
    with pytest.raises(ValidationError):
        Pipeline([]).fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]))


def test_duplicate_step_names_rejected(linear_data):
    X_train, y_train, _, _ = linear_data
    with pytest.raises(ValidationError, match="duplicate"):
        Pipeline([
            ("s", StandardScaler()),
            ("s", LogisticRegression()),
        ]).fit(X_train, y_train)


def test_non_transformer_intermediate_rejected(linear_data):
    X_train, y_train, _, _ = linear_data
    with pytest.raises(ValidationError, match="transformer"):
        Pipeline([
            ("clf1", LogisticRegression()),
            ("clf2", LogisticRegression()),
        ]).fit(X_train, y_train)


def test_non_classifier_final_step_rejected(linear_data):
    X_train, y_train, _, _ = linear_data
    with pytest.raises(ValidationError, match="classifier"):
        Pipeline([("scale", StandardScaler())]).fit(X_train, y_train)


def test_unfitted_pipeline_predict_raises(linear_data):
    _, _, X_test, _ = linear_data
    pipeline = Pipeline([("clf", LogisticRegression())])
    with pytest.raises(NotFittedError, match="not fitted"):
        pipeline.predict(X_test)


def test_pipeline_selection_reduces_dimensions(linear_data):
    X_train, y_train, X_test, _ = linear_data
    pipeline = Pipeline([
        ("select", SelectKBest(scorer="pearson", k=2)),
        ("clf", LogisticRegression()),
    ]).fit(X_train, y_train)
    transformed = pipeline._transform(X_test)
    assert transformed.shape == (X_test.shape[0], 2)
