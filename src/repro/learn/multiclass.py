"""Multi-class classification via one-vs-rest reduction.

The paper restricts itself to binary classification because "other
learning tasks, e.g. clustering and multi-class classification, are only
supported by a small subset of platforms" (§3).  This extension provides
the standard reduction that turns any of our binary classifiers into a
multi-class one, so the methodology can be carried to multi-class
datasets.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, clone
from repro.learn.validation import check_predict_input, check_X_y

__all__ = ["OneVsRestClassifier"]


class OneVsRestClassifier(BaseEstimator, ClassifierMixin):
    """Fit one binary classifier per class against the rest.

    Prediction picks the class whose member classifier reports the
    highest positive score (probability when available, decision value
    otherwise, vote as a last resort).

    Parameters
    ----------
    estimator : binary classifier
        Prototype cloned per class.
    """

    def __init__(self, estimator: BaseEstimator):
        self.estimator = estimator

    def fit(self, X, y) -> "OneVsRestClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        self.classes_ = np.unique(y)
        if self.classes_.shape[0] < 2:
            raise ValidationError("need at least 2 classes")
        self.estimators_ = []
        for c in self.classes_:
            member = clone(self.estimator)
            member.fit(X, (y == c).astype(np.intp))
            self.estimators_.append(member)
        self.n_features_in_ = X.shape[1]
        return self

    def _scores(self, X: np.ndarray) -> np.ndarray:
        columns = []
        for member in self.estimators_:
            if hasattr(member, "predict_proba"):
                columns.append(member.predict_proba(X)[:, 1])
            elif hasattr(member, "decision_function"):
                columns.append(member.decision_function(X))
            else:
                columns.append(np.asarray(member.predict(X), dtype=np.float64))
        return np.column_stack(columns)

    def predict(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "estimators_")
        return self.classes_[np.argmax(self._scores(X), axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Per-class scores normalized to sum to one per sample."""
        X = check_predict_input(self, X, "estimators_")
        scores = self._scores(X)
        scores = scores - scores.min(axis=1, keepdims=True)
        totals = scores.sum(axis=1, keepdims=True)
        uniform = np.full_like(scores, 1.0 / scores.shape[1])
        with np.errstate(invalid="ignore"):
            normalized = np.where(totals > 0.0, scores / totals, uniform)
        return normalized
