"""Bayes Point Machine (Herbrich, Graepel & Campbell 2001).

Azure ML Studio exposes this classifier with a single tunable parameter
(number of training iterations, Table 1).  The Bayes point approximates
Bayesian model averaging over the version space of linear separators by
averaging several independently-trained perceptrons — each trained on a
bootstrap/permuted view of the data — into a single weight vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.linear.base import LinearBinaryClassifier
from repro.learn.validation import check_random_state

__all__ = ["BayesPointMachine"]


class BayesPointMachine(LinearBinaryClassifier):
    """Approximate Bayes point via an ensemble of randomized perceptrons.

    Parameters
    ----------
    n_iter : int
        Training epochs for each member perceptron (Azure's knob).
    n_members : int
        Number of independently-initialized perceptrons averaged into the
        Bayes point.
    random_state : int, Generator, or None
        Seed controlling member initialization and data permutations.
    """

    def __init__(self, n_iter: int = 30, n_members: int = 11, random_state=None):
        self.n_iter = n_iter
        self.n_members = n_members
        self.random_state = random_state

    def _fit_signed(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_iter < 1:
            raise ValidationError(f"n_iter must be >= 1, got {self.n_iter}")
        if self.n_members < 1:
            raise ValidationError(
                f"n_members must be >= 1, got {self.n_members}"
            )
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        weights = np.zeros((self.n_members, n_features))
        biases = np.zeros(self.n_members)
        rows = list(X)
        labels = y.tolist()
        for m in range(self.n_members):
            w = rng.normal(scale=0.01, size=n_features)
            b = 0.0
            for _ in range(self.n_iter):
                mistakes = 0
                for i in rng.permutation(n_samples).tolist():
                    x_i, y_i = rows[i], labels[i]
                    if y_i * (x_i @ w + b) <= 0.0:
                        w += y_i * x_i
                        b += y_i
                        mistakes += 1
                if mistakes == 0:
                    break
            norm = math.sqrt(w @ w)
            if norm > 0.0:
                # Normalize so each member contributes a direction, not a
                # magnitude — the Bayes point is a centre of version space.
                w = w / norm
                b = b / norm
            weights[m] = w
            biases[m] = b
        self.coef_ = weights.mean(axis=0)
        self.intercept_ = float(biases.mean())
        self.member_weights_ = weights
