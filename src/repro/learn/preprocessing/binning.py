"""Quantile binning with one-hot expansion.

Amazon ML's data "recipes" apply quantile binning to numeric features,
letting its Logistic Regression learn additive piecewise-constant
functions of each feature — a *non-linear* decision surface despite the
linear classifier.  Section 6.2 of the paper observes exactly this:
Amazon claims Logistic Regression yet produces a non-linear boundary on
the CIRCLE dataset (Fig 13).  This transform is how our Amazon simulator
reproduces that behavior.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, TransformerMixin
from repro.learn.validation import check_array, check_predict_input

__all__ = ["QuantileBinningTransform"]


class QuantileBinningTransform(BaseEstimator, TransformerMixin):
    """One-hot encode each feature's quantile bin.

    Parameters
    ----------
    n_bins : int
        Number of quantile bins per feature.  Output dimensionality is
        ``n_features * n_bins``.
    """

    def __init__(self, n_bins: int = 10):
        self.n_bins = n_bins

    def fit(self, X, y=None) -> "QuantileBinningTransform":
        X = check_array(X)
        if self.n_bins < 2:
            raise ValidationError(f"n_bins must be >= 2, got {self.n_bins}")
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        self.bin_edges_ = [
            np.unique(np.quantile(X[:, j], quantiles)) for j in range(X.shape[1])
        ]
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "bin_edges_")
        blocks = []
        for j, edges in enumerate(self.bin_edges_):
            codes = np.digitize(X[:, j], edges)
            width = len(edges) + 1
            block = np.zeros((X.shape[0], width))
            block[np.arange(X.shape[0]), codes] = 1.0
            blocks.append(block)
        return np.hstack(blocks)
