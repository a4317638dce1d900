"""Regression estimators and metrics.

Binary classification and regression are the two learning tasks the paper
notes are "commonly supported by all 6 ML platforms" (§3); the paper
studies only classification.  This module provides the regression half of
the substrate so the same measurement methodology can be extended to it:
ordinary least squares / ridge regression, a CART regression tree, and
kNN regression, plus the standard regression metrics.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator
from repro.learn.tree.cart import TreeNode
from repro.learn.tree.flat import flatten_tree
from repro.learn.tree.splitter import PresortedSplitEngine, VarianceCriterion
from repro.learn.validation import (
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = [
    "mean_squared_error",
    "mean_absolute_error",
    "r2_score",
    "LinearRegression",
    "DecisionTreeRegressor",
    "KNeighborsRegressor",
]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _align(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValidationError(
            f"length mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValidationError("cannot score empty arrays")
    return y_true, y_pred


def mean_squared_error(y_true, y_pred) -> float:
    """Mean of squared residuals."""
    y_true, y_pred = _align(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def mean_absolute_error(y_true, y_pred) -> float:
    """Mean of absolute residuals."""
    y_true, y_pred = _align(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination; 1.0 is perfect, 0.0 matches the mean."""
    y_true, y_pred = _align(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


class _RegressorMixin:
    """Mixin adding an R^2 :meth:`score` for regressors."""

    _estimator_kind = "regressor"

    def score(self, X, y) -> float:
        return r2_score(y, self.predict(X))


# ---------------------------------------------------------------------------
# Linear regression (OLS / ridge)
# ---------------------------------------------------------------------------

class LinearRegression(BaseEstimator, _RegressorMixin):
    """Least-squares linear regression with optional L2 (ridge) penalty.

    Parameters
    ----------
    alpha : float
        Ridge strength; 0 gives plain OLS (solved by lstsq).
    fit_intercept : bool
        Learn an unpenalized additive bias.
    """

    def __init__(self, alpha: float = 0.0, fit_intercept: bool = True):
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y, min_samples=2)
        y = y.astype(np.float64)
        if self.alpha < 0:
            raise ValidationError("alpha must be non-negative")
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            Xc, yc = X, y
        if self.alpha == 0.0:
            coef, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
        else:
            gram = Xc.T @ Xc + self.alpha * np.eye(X.shape[1])
            coef = np.linalg.solve(gram, Xc.T @ yc)
        self.coef_ = coef
        self.intercept_ = y_mean - float(x_mean @ coef)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "coef_")
        return X @ self.coef_ + self.intercept_


# ---------------------------------------------------------------------------
# CART regression tree
# ---------------------------------------------------------------------------

class DecisionTreeRegressor(BaseEstimator, _RegressorMixin):
    """Variance-reduction CART tree predicting leaf means.

    Parameters
    ----------
    max_depth : int or None
        Depth cap.
    min_samples_leaf : int
        Minimum samples per leaf.
    max_features : None, "sqrt", or int
        Features examined per split.
    random_state : int, Generator, or None
        Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y, min_samples=2)
        y = y.astype(np.float64)
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        self._rng = check_random_state(self.random_state)
        self.tree_ = self._build_tree(X, y)
        self.flat_tree_ = flatten_tree(self.tree_)
        self.n_features_in_ = X.shape[1]
        return self

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        if self.max_features == "sqrt":
            count = max(1, int(np.sqrt(n_features)))
        else:
            count = min(int(self.max_features), n_features)
        return self._rng.choice(n_features, size=count, replace=False)

    def _build_tree(self, X: np.ndarray, y: np.ndarray) -> TreeNode:
        """Grow on the presorted engine under the variance criterion."""
        engine = PresortedSplitEngine(
            X, VarianceCriterion(y), self.min_samples_leaf
        )
        return self._grow(engine, engine.root_state(), np.arange(y.size), 0)

    def _grow(self, engine, state, rows: np.ndarray, depth: int) -> TreeNode:
        # Node sums run over row-ordered members (pairwise summation).
        y = engine.criterion.target[rows]
        node = TreeNode(
            positive_fraction=float(y.mean()),  # reused as the leaf value
            n_samples=y.shape[0],
            depth=depth,
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.shape[0] < 2 * self.min_samples_leaf
            or np.all(y == y[0])
        ):
            return node
        split = engine.best_split(
            state, self._candidate_features(engine.X.shape[1]), y.sum()
        )
        if split is None:
            return node
        feature, threshold, split_at = split
        left_state, right_state = engine.partition(
            state, feature, threshold, split_at
        )
        goes_left = engine.X[rows, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(engine, left_state, rows[goes_left], depth + 1)
        node.right = self._grow(engine, right_state, rows[~goes_left], depth + 1)
        return node

    def predict(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "tree_")
        return self.flat_tree_.predict_value(X)


# ---------------------------------------------------------------------------
# kNN regression
# ---------------------------------------------------------------------------

class KNeighborsRegressor(BaseEstimator, _RegressorMixin):
    """Brute-force kNN regression (mean of neighbor targets).

    Parameters
    ----------
    n_neighbors : int
        Neighbors averaged per query.
    weights : {"uniform", "distance"}
        Averaging weights.
    """

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform"):
        self.n_neighbors = n_neighbors
        self.weights = weights

    def fit(self, X, y) -> "KNeighborsRegressor":
        X, y = check_X_y(X, y)
        if self.n_neighbors < 1:
            raise ValidationError("n_neighbors must be >= 1")
        if self.weights not in ("uniform", "distance"):
            raise ValidationError(f"unknown weights {self.weights!r}")
        self._fit_X = X
        self._fit_y = y.astype(np.float64)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "_fit_X")
        k = min(self.n_neighbors, self._fit_X.shape[0])
        predictions = np.empty(X.shape[0])
        for start in range(0, X.shape[0], 256):
            block = X[start : start + 256]
            diff = block[:, None, :] - self._fit_X[None, :, :]
            distances = np.sqrt((diff**2).sum(axis=2))
            neighbor_idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
            rows = np.arange(block.shape[0])[:, None]
            neighbor_y = self._fit_y[neighbor_idx]
            if self.weights == "uniform":
                predictions[start : start + block.shape[0]] = neighbor_y.mean(axis=1)
            else:
                neighbor_dist = distances[rows, neighbor_idx]
                exact = neighbor_dist == 0.0
                weights = np.where(
                    exact, 0.0, 1.0 / np.where(exact, 1.0, neighbor_dist)
                )
                has_exact = exact.any(axis=1)
                weights[has_exact] = exact[has_exact].astype(np.float64)
                sums = weights.sum(axis=1)
                sums[sums == 0.0] = 1.0
                predictions[start : start + block.shape[0]] = (
                    (weights * neighbor_y).sum(axis=1) / sums
                )
        return predictions
