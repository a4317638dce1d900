"""Tests for splitting, cross-validation, and grid search."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.learn.linear import LogisticRegression
from repro.learn.model_selection import (
    GridSearchCV,
    KFold,
    ParameterGrid,
    StratifiedKFold,
    cross_val_score,
    paper_numeric_scan,
    train_test_split,
)
from repro.learn.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + 0.2 * rng.normal(size=200) > 0).astype(int)
    return X, y


class TestTrainTestSplit:
    def test_70_30_sizes(self, data):
        X, y = data
        X_train, X_test, y_train, y_test = train_test_split(X, y, random_state=0)
        assert len(X_test) == pytest.approx(60, abs=2)
        assert len(X_train) + len(X_test) == 200
        assert len(y_train) == len(X_train)

    def test_stratification_preserves_class_ratio(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 2))
        y = np.array([1] * 40 + [0] * 160)
        _, _, y_train, y_test = train_test_split(X, y, random_state=0)
        assert y_test.mean() == pytest.approx(0.2, abs=0.05)
        assert y_train.mean() == pytest.approx(0.2, abs=0.05)

    def test_both_classes_in_each_partition(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.array([1] * 3 + [0] * 17)
        _, _, y_train, y_test = train_test_split(X, y, test_size=0.3, random_state=0)
        assert len(np.unique(y_train)) == 2
        assert len(np.unique(y_test)) == 2

    def test_no_overlap_and_full_coverage(self, data):
        X, y = data
        X_train, X_test, _, _ = train_test_split(X, y, random_state=0)
        combined = np.vstack([X_train, X_test])
        assert combined.shape == X.shape
        # Every original row appears exactly once (rows are unique w.h.p.).
        original = {tuple(row) for row in X}
        recombined = [tuple(row) for row in combined]
        assert set(recombined) == original
        assert len(recombined) == len(original)

    def test_deterministic_given_seed(self, data):
        X, y = data
        a = train_test_split(X, y, random_state=5)[0]
        b = train_test_split(X, y, random_state=5)[0]
        assert np.array_equal(a, b)

    def test_invalid_test_size(self, data):
        X, y = data
        with pytest.raises(ValidationError):
            train_test_split(X, y, test_size=0.0)
        with pytest.raises(ValidationError):
            train_test_split(X, y, test_size=1.0)


class TestKFold:
    def test_folds_partition_data(self, data):
        X, y = data
        seen = []
        for train, test in KFold(n_splits=5, random_state=0).split(X):
            assert len(np.intersect1d(train, test)) == 0
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(len(X)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            list(KFold(n_splits=5).split(np.zeros((3, 1))))

    def test_invalid_n_splits(self):
        with pytest.raises(ValidationError):
            KFold(n_splits=1)


class TestStratifiedKFold:
    def test_class_ratio_per_fold(self):
        y = np.array([1] * 30 + [0] * 90)
        X = np.zeros((120, 1))
        for _, test in StratifiedKFold(n_splits=3, random_state=0).split(X, y):
            fraction = y[test].mean()
            assert fraction == pytest.approx(0.25, abs=0.05)

    def test_partition_property(self, data):
        X, y = data
        seen = []
        for _, test in StratifiedKFold(n_splits=4, random_state=0).split(X, y):
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(len(X)))


def test_cross_val_score_returns_fold_scores(data):
    X, y = data
    scores = cross_val_score(LogisticRegression(), X, y, cv=4, random_state=0)
    assert scores.shape == (4,)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert scores.mean() > 0.8


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        combos = list(grid)
        assert len(combos) == len(grid) == 6
        assert {"a": 1, "b": "z"} in combos

    def test_list_of_grids_concatenates(self):
        grid = ParameterGrid([{"a": [1]}, {"b": [2, 3]}])
        assert len(grid) == 3

    def test_empty_grid_yields_empty_dict(self):
        assert list(ParameterGrid({})) == [{}]

    def test_non_sequence_value_rejected(self):
        with pytest.raises(ValidationError):
            ParameterGrid({"a": 5})


def test_paper_numeric_scan():
    assert paper_numeric_scan(0.01) == [0.0001, 0.01, 1.0]


class TestGridSearchCV:
    def test_selects_best_depth(self, circles_data):
        X_train, y_train, X_test, y_test = circles_data
        search = GridSearchCV(
            DecisionTreeClassifier(random_state=0),
            {"max_depth": [1, 8]},
            cv=3,
            random_state=0,
        ).fit(X_train, y_train)
        # Depth 1 cannot represent a circle; depth 8 can.
        assert search.best_params_["max_depth"] == 8
        assert search.best_estimator_.score(X_test, y_test) > 0.8

    def test_cv_results_recorded(self, linear_data):
        X_train, y_train, _, _ = linear_data
        search = GridSearchCV(
            LogisticRegression(), {"C": [0.1, 1.0]}, cv=3, random_state=0
        ).fit(X_train, y_train)
        assert len(search.cv_results_) == 2
        assert search.best_score_ >= max(
            r["mean_score"] for r in search.cv_results_
        ) - 1e-12

    def test_failing_candidates_skipped(self, linear_data):
        X_train, y_train, _, _ = linear_data
        search = GridSearchCV(
            LogisticRegression(),
            {"C": [-1.0, 1.0]},  # C=-1 raises; C=1 works
            cv=3,
            random_state=0,
        ).fit(X_train, y_train)
        assert search.best_params_ == {"C": 1.0}

    def test_all_failures_raise(self, linear_data):
        X_train, y_train, _, _ = linear_data
        with pytest.raises(ValidationError, match="failed"):
            GridSearchCV(
                LogisticRegression(), {"C": [-1.0, -2.0]}, cv=3
            ).fit(X_train, y_train)

    def test_unfitted_predict_raises_not_fitted(self, linear_data):
        _, _, X_test, _ = linear_data
        search = GridSearchCV(LogisticRegression(), {"C": [1.0]})
        with pytest.raises(NotFittedError, match="not fitted"):
            search.predict(X_test)

    def test_predict_uses_best_estimator(self, linear_data):
        X_train, y_train, X_test, _ = linear_data
        search = GridSearchCV(
            LogisticRegression(), {"C": [1.0]}, cv=3, random_state=0
        ).fit(X_train, y_train)
        assert len(search.predict(X_test)) == len(X_test)
