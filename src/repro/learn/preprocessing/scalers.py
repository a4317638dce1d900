"""Feature scaling and row normalization transformers.

These are the data-transformation choices listed for scikit-learn in
Table 1 of the paper: GaussianNorm/StandardScaler, MinMaxScaler,
MaxAbsScaler, and L1/L2 normalization.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator, TransformerMixin
from repro.learn.validation import check_array, check_predict_input

__all__ = [
    "StandardScaler",
    "MinMaxScaler",
    "MaxAbsScaler",
    "L1Normalizer",
    "L2Normalizer",
    "IdentityTransform",
]


class StandardScaler(BaseEstimator, TransformerMixin):
    """Scale features to zero mean and unit variance (GaussianNorm).

    Constant features (zero variance) are centred but left unscaled to
    avoid division by zero, matching standard library behaviour.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_array(X)
        constant = X.max(axis=0) == X.min(axis=0)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_mean:
            # Use the exact value for constant columns so centering yields
            # exactly zero even for denormal inputs where the computed mean
            # carries rounding residue.
            self.mean_[constant] = X[0, constant]
        if self.with_std:
            std = X.std(axis=0)
            # A spread within the rounding error of the mean (adjacent
            # doubles, say) is not scaled up: that error would become an
            # O(1) offset in the centred output.
            negligible = std <= X.shape[0] * np.finfo(np.float64).eps * np.abs(
                self.mean_
            )
            std[negligible | constant] = 1.0
            self.scale_ = std
        else:
            self.scale_ = np.ones(X.shape[1])
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "mean_")
        return (X - self.mean_) / self.scale_


class MinMaxScaler(BaseEstimator, TransformerMixin):
    """Scale each feature into ``feature_range`` (default [0, 1])."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        self.feature_range = feature_range

    def fit(self, X, y=None) -> "MinMaxScaler":
        X = check_array(X)
        low, high = self.feature_range
        if low >= high:
            raise ValueError(f"invalid feature_range {self.feature_range}")
        self.data_min_ = X.min(axis=0)
        data_range = X.max(axis=0) - self.data_min_
        # Ranges below the smallest normal float would overflow 1/range.
        data_range[data_range < np.finfo(np.float64).tiny] = 1.0
        self.scale_ = (high - low) / data_range
        self.min_ = low - self.data_min_ * self.scale_
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "scale_")
        return X * self.scale_ + self.min_


class MaxAbsScaler(BaseEstimator, TransformerMixin):
    """Scale each feature by its maximum absolute value into [-1, 1]."""

    def fit(self, X, y=None) -> "MaxAbsScaler":
        X = check_array(X)
        max_abs = np.abs(X).max(axis=0)
        max_abs[max_abs == 0.0] = 1.0
        self.scale_ = max_abs
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "scale_")
        return X / self.scale_


class _RowNormalizer(BaseEstimator, TransformerMixin):
    """Shared implementation for Lp row normalization."""

    _order: float = 2.0

    def fit(self, X, y=None) -> "_RowNormalizer":
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "n_features_in_")
        # Normalization is scale-invariant, so divide each row by its peak
        # magnitude first: raising subnormal-range entries to a power would
        # otherwise underflow and let x/||x|| land slightly above 1.
        peak = np.max(np.abs(X), axis=1)
        peak[peak == 0.0] = 1.0
        X = X / peak[:, None]
        norms = np.linalg.norm(X, ord=self._order, axis=1)
        norms[norms == 0.0] = 1.0
        return X / norms[:, None]


class L1Normalizer(_RowNormalizer):
    """Scale each sample to unit L1 norm."""

    _order = 1.0


class L2Normalizer(_RowNormalizer):
    """Scale each sample to unit L2 norm."""

    _order = 2.0


class IdentityTransform(BaseEstimator, TransformerMixin):
    """No-op transformer, used as the 'no preprocessing' baseline choice."""

    def fit(self, X, y=None) -> "IdentityTransform":
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        return check_predict_input(self, X, "n_features_in_")
