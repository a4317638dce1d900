"""Averaged Perceptron (Freund & Schapire 1999).

One of Azure ML Studio's classifiers (Table 1: learning rate and maximum
number of iterations are tunable).  The averaged variant returns the
running average of all intermediate weight vectors, which generalizes far
better than the final perceptron weights on non-separable data.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.linear.base import LinearBinaryClassifier
from repro.learn.validation import check_random_state

__all__ = ["AveragedPerceptron"]


class AveragedPerceptron(LinearBinaryClassifier):
    """Perceptron with weight averaging over all updates.

    Parameters
    ----------
    learning_rate : float
        Step size applied to each mistake-driven update.
    max_iter : int
        Number of passes (epochs) over the training data.
    shuffle : bool
        Reshuffle the sample order each epoch.
    random_state : int, Generator, or None
        Seed for shuffling.
    """

    def __init__(
        self,
        learning_rate: float = 1.0,
        max_iter: int = 50,
        shuffle: bool = True,
        random_state=None,
    ):
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.shuffle = shuffle
        self.random_state = random_state

    def _fit_signed(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.learning_rate <= 0:
            raise ValidationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        w = np.zeros(n_features)
        b = 0.0
        # Lazy averaging: track u = sum over steps of (step_index * update)
        # so the average can be recovered as w - u / total_steps.
        u = np.zeros(n_features)
        beta = 0.0
        counter = 1.0
        mistakes_last_epoch = 0
        # A Python float: a numpy float32 rate times a Python float label
        # would stay float32, where the numpy label promoted it.
        learning_rate = float(self.learning_rate)
        rows = list(X)
        labels = y.tolist()
        for _ in range(self.max_iter):
            indices = rng.permutation(n_samples).tolist() if self.shuffle else range(n_samples)
            mistakes_last_epoch = 0
            for i in indices:
                x_i = rows[i]
                if labels[i] * (x_i @ w + b) <= 0.0:
                    update = learning_rate * labels[i]
                    w += update * x_i
                    b += update
                    u += counter * update * x_i
                    beta += counter * update
                    mistakes_last_epoch += 1
                counter += 1.0
            if mistakes_last_epoch == 0:
                break
        self.coef_ = w - u / counter
        self.intercept_ = float(b - beta / counter)
        self.mistakes_ = mistakes_last_epoch
