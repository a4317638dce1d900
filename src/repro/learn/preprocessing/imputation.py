"""Missing-value imputation.

The paper replaces missing fields with the median of the corresponding
feature before uploading datasets to any platform (§3.1), because none of
the MLaaS platforms performs data cleaning.  :class:`MedianImputer`
implements exactly that step; a mean strategy is included for the ablation
called out in DESIGN.md.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, TransformerMixin, check_is_fitted
from repro.learn.validation import check_array, check_n_features

__all__ = ["MedianImputer"]


class MedianImputer(BaseEstimator, TransformerMixin):
    """Replace NaN entries with a per-feature statistic.

    Parameters
    ----------
    strategy : {"median", "mean"}
        Statistic computed over the non-missing values of each feature.
        The paper uses the median.
    """

    def __init__(self, strategy: str = "median"):
        self.strategy = strategy

    def fit(self, X, y=None) -> "MedianImputer":
        X = check_array(X, allow_nan=True)
        if self.strategy not in ("median", "mean"):
            raise ValidationError(f"unknown imputation strategy {self.strategy!r}")
        with warnings.catch_warnings():
            # An all-NaN feature is handled explicitly below.
            warnings.simplefilter("ignore", RuntimeWarning)
            if self.strategy == "median":
                fill = np.nanmedian(X, axis=0)
            else:
                fill = np.nanmean(X, axis=0)
        # A feature that is entirely missing has no defined statistic;
        # fall back to zero so downstream classifiers see a constant column.
        fill = np.where(np.isnan(fill), 0.0, fill)
        self.fill_values_ = fill
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "fill_values_")
        X = check_array(X, allow_nan=True)
        check_n_features(self, X)
        X = X.copy()
        missing = np.isnan(X)
        if missing.any():
            X[missing] = np.broadcast_to(self.fill_values_, X.shape)[missing]
        return X
