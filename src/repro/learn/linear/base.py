"""Shared machinery for binary linear classifiers.

All linear models here learn a weight vector ``coef_`` and scalar
``intercept_`` defining the decision function ``X @ coef_ + intercept_``;
samples with a positive score are assigned the second (larger) class.
Subclasses implement :meth:`_fit_signed`, receiving labels in {-1, +1}.
"""

from __future__ import annotations

import numpy as np

from repro.learn.base import BaseEstimator, ClassifierMixin, sigmoid
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_X_y,
)

__all__ = ["LinearBinaryClassifier"]


class LinearBinaryClassifier(BaseEstimator, ClassifierMixin):
    """Template for binary classifiers with a linear decision function."""

    def fit(self, X, y) -> "LinearBinaryClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        self.classes_ = check_binary_labels(y)
        signed = np.where(y == self.classes_[1], 1.0, -1.0)
        self._fit_signed(X, signed)
        self.n_features_in_ = X.shape[1]
        return self

    def _fit_signed(self, X: np.ndarray, y_signed: np.ndarray) -> None:
        raise NotImplementedError

    def decision_function(self, X) -> np.ndarray:
        """Signed distance-like score; positive means the second class."""
        X = check_predict_input(self, X, "coef_")
        return X @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores > 0.0, self.classes_[1], self.classes_[0])

    def predict_proba(self, X) -> np.ndarray:
        """Probability estimates via a logistic link on the decision score.

        For :class:`LogisticRegression` this is the exact model probability;
        for margin-based linear models it is a standard calibration.
        """
        scores = self.decision_function(X)
        positive = sigmoid(scores)
        return np.column_stack([1.0 - positive, positive])
