"""Categorical feature encoding.

Following the paper's convention (§3.1, citing Fernández-Delgado et al.),
categorical features ``{C1, ..., CN}`` are mapped to integers ``{1, ..., N}``
before upload.  The encoder works on object arrays mixing strings and
numbers; numeric columns pass through unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, TransformerMixin, check_is_fitted
from repro.learn.validation import check_array, check_n_features

__all__ = ["OrdinalEncoder"]


def _is_numeric_column(column: np.ndarray) -> bool:
    """True when every non-missing entry converts cleanly to float."""
    for value in column:
        if value is None:
            continue
        if isinstance(value, float) and np.isnan(value):
            continue
        try:
            float(value)
        except (TypeError, ValueError):
            return False
    return True


class OrdinalEncoder(BaseEstimator, TransformerMixin):
    """Map categorical columns to 1-based integer codes.

    Missing entries (``None`` or NaN) are emitted as NaN so that
    :class:`~repro.learn.preprocessing.MedianImputer` can handle them in the
    same way as numeric missing values.  Unseen categories at transform
    time receive the code ``N + 1`` (one past the largest training code),
    mirroring the "just map it to a new integer" treatment of the paper's
    preprocessing script.
    """

    def fit(self, X, y=None) -> "OrdinalEncoder":
        # dtype=object keeps mixed string/number columns intact; missing
        # entries are legitimate here (the imputer runs downstream).
        X = check_array(X, dtype=object)
        self.categories_: list[dict | None] = []
        for j in range(X.shape[1]):
            column = X[:, j]
            if _is_numeric_column(column):
                self.categories_.append(None)
            else:
                seen = sorted(
                    {str(v) for v in column if not self._is_missing(v)}
                )
                self.categories_.append({c: i + 1 for i, c in enumerate(seen)})
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "categories_")
        X = self._as_object_matrix(X)
        check_n_features(self, X)
        out = np.empty(X.shape, dtype=np.float64)
        for j, mapping in enumerate(self.categories_):
            column = X[:, j]
            if mapping is None:
                out[:, j] = [
                    np.nan if self._is_missing(v) else float(v) for v in column
                ]
            else:
                unseen_code = len(mapping) + 1
                out[:, j] = [
                    np.nan
                    if self._is_missing(v)
                    else mapping.get(str(v), unseen_code)
                    for v in column
                ]
        return out

    @staticmethod
    def _is_missing(value) -> bool:
        if value is None:
            return True
        return isinstance(value, float) and np.isnan(value)

    @staticmethod
    def _as_object_matrix(X) -> np.ndarray:
        X = np.asarray(X, dtype=object)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValidationError(f"expected 2-D input, got shape {X.shape}")
        return X
