"""SelectKBest-style feature selector over the filter scorers."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, TransformerMixin, check_is_fitted
from repro.learn.feature_selection.filters import (
    chi2_score,
    count_score,
    f_classif_score,
    fisher_score,
    kendall_score,
    mutual_info_score,
    pearson_score,
    spearman_score,
)
from repro.learn.validation import check_predict_input, check_X_y

__all__ = ["SelectKBest", "FILTER_SCORERS"]

#: Registry mapping scorer names (as they appear in Table 1) to functions.
FILTER_SCORERS: dict[str, Callable] = {
    "pearson": pearson_score,
    "spearman": spearman_score,
    "kendall": kendall_score,
    "chi2": chi2_score,
    "mutual_info": mutual_info_score,
    "fisher": fisher_score,
    "count": count_score,
    "f_classif": f_classif_score,
}


class SelectKBest(BaseEstimator, TransformerMixin):
    """Keep the ``k`` features with the highest filter score.

    Parameters
    ----------
    scorer : str
        Name of a filter from :data:`FILTER_SCORERS`.
    k : int or "all" or float
        Number of features to keep.  ``"all"`` keeps everything; a float in
        (0, 1] keeps that fraction (at least one feature).
    """

    def __init__(self, scorer: str = "f_classif", k="all"):
        self.scorer = scorer
        self.k = k

    def _resolve_k(self, n_features: int) -> int:
        if self.k == "all":
            return n_features
        if isinstance(self.k, float):
            if not 0.0 < self.k <= 1.0:
                raise ValidationError(f"fractional k must be in (0, 1], got {self.k}")
            return max(1, int(round(self.k * n_features)))
        k = int(self.k)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        return min(k, n_features)

    def fit(self, X, y) -> "SelectKBest":
        X, y = check_X_y(X, y)
        if self.scorer not in FILTER_SCORERS:
            raise ValidationError(
                f"unknown scorer {self.scorer!r}; "
                f"choose from {sorted(FILTER_SCORERS)}"
            )
        self.scores_ = FILTER_SCORERS[self.scorer](X, y)
        k = self._resolve_k(X.shape[1])
        # Stable selection: break score ties by original feature index.
        order = np.argsort(-self.scores_, kind="stable")
        self.support_ = np.zeros(X.shape[1], dtype=bool)
        self.support_[order[:k]] = True
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "support_")
        return X[:, self.support_]

    def selected_indices(self) -> np.ndarray:
        """Return the indices of the kept features, in original order."""
        check_is_fitted(self, "support_")
        return np.flatnonzero(self.support_)
