"""k-Nearest Neighbors classifier.

Table 1 lists kNN in the local scikit-learn configuration with tunable
``n_neighbors``, ``weights`` and Minkowski ``p``.  The paper notes (§3.1)
that its ordinal encoding of categoricals can hurt distance-based
classifiers like kNN — this implementation is the one affected.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_X_y,
)

__all__ = ["KNeighborsClassifier"]


class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Brute-force kNN with uniform or inverse-distance vote weighting.

    Parameters
    ----------
    n_neighbors : int
        Number of neighbors consulted per query.
    weights : {"uniform", "distance"}
        Vote weighting; "distance" uses 1/d with exact-match override.
    p : float
        Minkowski order (1 = Manhattan, 2 = Euclidean).
    """

    _CHUNK = 256  # query rows per distance-matrix block, bounds memory

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform", p: float = 2.0):
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.p = p

    def fit(self, X, y) -> "KNeighborsClassifier":
        X, y = check_X_y(X, y, min_samples=1)
        if self.n_neighbors < 1:
            raise ValidationError(
                f"n_neighbors must be >= 1, got {self.n_neighbors}"
            )
        if self.weights not in ("uniform", "distance"):
            raise ValidationError(f"unknown weights {self.weights!r}")
        if self.p <= 0:
            raise ValidationError(f"p must be positive, got {self.p}")
        self.classes_ = check_binary_labels(y)
        self._fit_X = X
        self._fit_y01 = (y == self.classes_[1]).astype(np.float64)
        self.n_features_in_ = X.shape[1]
        return self

    def _distances(self, queries: np.ndarray) -> np.ndarray:
        diff = np.abs(queries[:, None, :] - self._fit_X[None, :, :])
        if self.p == 2.0:
            return np.sqrt((diff**2).sum(axis=2))
        if self.p == 1.0:
            return diff.sum(axis=2)
        return (diff**self.p).sum(axis=2) ** (1.0 / self.p)

    def predict_proba(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "_fit_X")
        k = min(self.n_neighbors, self._fit_X.shape[0])
        positive = np.empty(X.shape[0])
        for start in range(0, X.shape[0], self._CHUNK):
            block = X[start : start + self._CHUNK]
            distances = self._distances(block)
            neighbor_idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
            rows = np.arange(block.shape[0])[:, None]
            neighbor_dist = distances[rows, neighbor_idx]
            neighbor_y = self._fit_y01[neighbor_idx]
            if self.weights == "uniform":
                positive[start : start + block.shape[0]] = neighbor_y.mean(axis=1)
            else:
                exact = neighbor_dist == 0.0
                weights = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, neighbor_dist))
                # Queries identical to a training point: exact matches vote alone.
                has_exact = exact.any(axis=1)
                weights[has_exact] = exact[has_exact].astype(np.float64)
                weight_sums = weights.sum(axis=1)
                weight_sums[weight_sums == 0.0] = 1.0
                positive[start : start + block.shape[0]] = (
                    (weights * neighbor_y).sum(axis=1) / weight_sums
                )
        return np.column_stack([1.0 - positive, positive])
