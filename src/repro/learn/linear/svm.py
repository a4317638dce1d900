"""Linear Support Vector Machine trained with Pegasos-style SGD.

Covers the "Support Vector Machine" rows in Table 1 (Microsoft: #iterations
and lambda; scikit-learn: penalty, C, loss).  Only the linear kernel is
implemented — the paper's platforms expose linear SVMs, and §6 groups SVM
in the linear family (Table 5).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.linear.base import LinearBinaryClassifier
from repro.learn.validation import check_random_state

__all__ = ["LinearSVC"]


class LinearSVC(LinearBinaryClassifier):
    """Linear SVM minimizing regularized (squared) hinge loss by SGD.

    Parameters
    ----------
    C : float
        Inverse regularization strength; lambda = 1 / (C * n_samples).
    loss : {"hinge", "squared_hinge"}
        Margin loss.
    penalty : {"l2"}
        Only L2 is supported (as in liblinear's default dual form).
    max_iter : int
        Number of SGD epochs.
    tol : float
        Stop when the epoch-to-epoch objective change falls below this.
    fit_intercept : bool
        Learn an unregularized bias via the standard averaging trick.
    random_state : int, Generator, or None
        Seed for sample shuffling.
    """

    def __init__(
        self,
        C: float = 1.0,
        loss: str = "hinge",
        penalty: str = "l2",
        max_iter: int = 100,
        tol: float = 1e-4,
        fit_intercept: bool = True,
        random_state=None,
    ):
        self.C = C
        self.loss = loss
        self.penalty = penalty
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.random_state = random_state

    def _objective(self, X, y, w, b, lam) -> float:
        margins = y * (X @ w + b)
        slack = np.maximum(0.0, 1.0 - margins)
        if self.loss == "squared_hinge":
            slack = slack**2
        return float(slack.mean() + 0.5 * lam * (w @ w))

    def _fit_signed(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.loss not in ("hinge", "squared_hinge"):
            raise ValidationError(f"unknown loss {self.loss!r}")
        if self.penalty != "l2":
            raise ValidationError("LinearSVC supports only the l2 penalty")
        if self.C <= 0:
            raise ValidationError(f"C must be positive, got {self.C}")
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        lam = 1.0 / (self.C * n_samples)
        w = np.zeros(n_features)
        b = 0.0
        t = 0
        # Pegasos guarantee: the optimum lies in a ball of radius
        # 1/sqrt(lam); projecting onto it keeps the iterates bounded even
        # with the large early step sizes.
        radius = 1.0 / np.sqrt(lam)
        hinge = self.loss == "hinge"
        rows = list(X)
        labels = y.tolist()
        previous_objective = np.inf
        for epoch in range(self.max_iter):
            for i in rng.permutation(n_samples).tolist():
                t += 1
                eta = 1.0 / (lam * t)
                x_i, y_i = rows[i], labels[i]
                margin = y_i * (x_i @ w + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    if hinge:
                        gradient_scale = -y_i
                    else:
                        gradient_scale = -2.0 * max(1.0 - margin, 0.0) * y_i
                    w -= eta * gradient_scale * x_i
                    if self.fit_intercept:
                        # Smaller, decaying step for the unregularized bias.
                        b -= (eta * lam) * gradient_scale
                norm = math.sqrt(w @ w)
                if norm > radius:
                    w *= radius / norm
            objective = self._objective(X, y, w, b, lam)
            if abs(previous_objective - objective) < self.tol:
                self.n_iter_ = epoch + 1
                break
            previous_objective = objective
        else:
            self.n_iter_ = self.max_iter
        self.coef_ = w
        self.intercept_ = float(b)
