"""Fisher-LDA projection used as a feature-selection step.

Azure ML Studio's "Fisher Linear Discriminant Analysis" module (Table 1,
Microsoft FEAT column) projects the feature space onto discriminant
directions before classification.  For binary problems the Fisher
criterion yields a single direction; this transform emits that projection
optionally alongside the top original features so downstream classifiers
keep some raw signal.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator, TransformerMixin
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_X_y,
)

__all__ = ["FisherLDATransform"]


class FisherLDATransform(BaseEstimator, TransformerMixin):
    """Project data onto the binary Fisher discriminant direction.

    Parameters
    ----------
    keep_original : int
        Number of original features (by Fisher score) appended to the
        projection; 0 emits the 1-D discriminant alone.
    """

    def __init__(self, keep_original: int = 0):
        self.keep_original = keep_original

    def fit(self, X, y) -> "FisherLDATransform":
        X, y = check_X_y(X, y)
        classes = check_binary_labels(y)
        positive = y == classes[1]
        mean_pos = X[positive].mean(axis=0)
        mean_neg = X[~positive].mean(axis=0)
        centered = np.vstack([
            X[positive] - mean_pos,
            X[~positive] - mean_neg,
        ])
        scatter = centered.T @ centered / max(X.shape[0] - 2, 1)
        scatter = scatter + 1e-6 * np.eye(X.shape[1])
        self.direction_ = np.linalg.solve(scatter, mean_pos - mean_neg)
        norm = np.linalg.norm(self.direction_)
        if norm > 0.0:
            self.direction_ /= norm
        if self.keep_original > 0:
            # Rank original features by per-feature Fisher criterion.
            variances = X[positive].var(axis=0) + X[~positive].var(axis=0)
            variances[variances == 0.0] = 1e-12
            scores = (mean_pos - mean_neg) ** 2 / variances
            order = np.argsort(-scores, kind="stable")
            self.kept_indices_ = np.sort(order[: self.keep_original])
        else:
            self.kept_indices_ = np.array([], dtype=np.intp)
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "direction_")
        projection = (X @ self.direction_)[:, None]
        if self.kept_indices_.size:
            return np.hstack([projection, X[:, self.kept_indices_]])
        return projection
