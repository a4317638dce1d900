"""Multi-Layer Perceptron classifier.

Table 1 lists MLP in the local scikit-learn configuration with tunable
activation, solver and alpha (L2 penalty).  Table 4(b) shows MLP becoming
the top local classifier once parameters are optimized — reproducing that
requires a real MLP, implemented here with backpropagation on the
cross-entropy loss and minibatch SGD/Adam.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, sigmoid
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = ["MLPClassifier"]

_ACTIVATIONS = {
    "relu": (
        lambda z: np.maximum(z, 0.0),
        lambda z, a: (z > 0.0).astype(np.float64),
    ),
    "tanh": (
        np.tanh,
        lambda z, a: 1.0 - a**2,
    ),
    "logistic": (
        sigmoid,
        lambda z, a: a * (1.0 - a),
    ),
}


class MLPClassifier(BaseEstimator, ClassifierMixin):
    """Feed-forward network with one sigmoid output unit.

    Parameters
    ----------
    hidden_layer_sizes : tuple of int
        Width of each hidden layer.
    activation : {"relu", "tanh", "logistic"}
        Hidden-layer nonlinearity.
    solver : {"adam", "sgd"}
        Weight update rule.
    alpha : float
        L2 penalty on all weights.
    learning_rate_init : float
        Initial step size.
    batch_size : int
        Minibatch size (capped at the dataset size).
    max_iter : int
        Training epochs.
    tol : float
        Early stop when the epoch loss improves by less than this for
        ``n_iter_no_change`` consecutive epochs.
    n_iter_no_change : int
        Patience for the early-stopping rule.
    random_state : int, Generator, or None
        Seed for initialization and shuffling.
    """

    def __init__(
        self,
        hidden_layer_sizes: tuple = (32,),
        activation: str = "relu",
        solver: str = "adam",
        alpha: float = 1e-4,
        learning_rate_init: float = 1e-3,
        batch_size: int = 32,
        max_iter: int = 200,
        tol: float = 1e-5,
        n_iter_no_change: int = 10,
        random_state=None,
    ):
        self.hidden_layer_sizes = hidden_layer_sizes
        self.activation = activation
        self.solver = solver
        self.alpha = alpha
        self.learning_rate_init = learning_rate_init
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.tol = tol
        self.n_iter_no_change = n_iter_no_change
        self.random_state = random_state

    def fit(self, X, y) -> "MLPClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        if self.activation not in _ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {self.activation!r}; "
                f"choose from {sorted(_ACTIVATIONS)}"
            )
        if self.solver not in ("adam", "sgd"):
            raise ValidationError(f"unknown solver {self.solver!r}")
        if self.alpha < 0:
            raise ValidationError("alpha must be non-negative")
        self.classes_ = check_binary_labels(y)
        y01 = (y == self.classes_[1]).astype(np.float64)
        rng = check_random_state(self.random_state)

        layer_sizes = [X.shape[1], *map(int, self.hidden_layer_sizes), 1]
        self.weights_ = []
        self.biases_ = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            # Glorot-uniform initialization.
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights_.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

        n_samples = X.shape[0]
        batch = min(max(1, self.batch_size), n_samples)
        if self.solver == "adam":
            m_w = [np.zeros_like(w) for w in self.weights_]
            v_w = [np.zeros_like(w) for w in self.weights_]
            m_b = [np.zeros_like(b) for b in self.biases_]
            v_b = [np.zeros_like(b) for b in self.biases_]
            beta1, beta2, epsilon = 0.9, 0.999, 1e-8
            t = 0

        best_loss = np.inf
        stall = 0
        for epoch in range(self.max_iter):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, batch):
                rows = order[start : start + batch]
                grads_w, grads_b, loss = self._backprop(X[rows], y01[rows])
                epoch_loss += loss * rows.size
                if self.solver == "sgd":
                    eta = self.learning_rate_init
                    for layer in range(len(self.weights_)):
                        self.weights_[layer] -= eta * grads_w[layer]
                        self.biases_[layer] -= eta * grads_b[layer]
                else:
                    t += 1
                    eta = self.learning_rate_init
                    for layer in range(len(self.weights_)):
                        m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * grads_w[layer]
                        v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * grads_w[layer] ** 2
                        m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * grads_b[layer]
                        v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * grads_b[layer] ** 2
                        m_w_hat = m_w[layer] / (1 - beta1**t)
                        v_w_hat = v_w[layer] / (1 - beta2**t)
                        m_b_hat = m_b[layer] / (1 - beta1**t)
                        v_b_hat = v_b[layer] / (1 - beta2**t)
                        self.weights_[layer] -= eta * m_w_hat / (np.sqrt(v_w_hat) + epsilon)
                        self.biases_[layer] -= eta * m_b_hat / (np.sqrt(v_b_hat) + epsilon)
            epoch_loss /= n_samples
            if epoch_loss > best_loss - self.tol:
                stall += 1
                if stall >= self.n_iter_no_change:
                    self.n_iter_ = epoch + 1
                    break
            else:
                stall = 0
                best_loss = epoch_loss
        else:
            self.n_iter_ = self.max_iter
        self.loss_ = float(best_loss if best_loss < np.inf else epoch_loss)
        self.n_features_in_ = X.shape[1]
        return self

    def _forward(self, X: np.ndarray):
        """Return pre-activations and activations for every layer."""
        activation_fn, _ = _ACTIVATIONS[self.activation]
        pre_activations = []
        activations = [X]
        a = X
        last = len(self.weights_) - 1
        for layer, (w, b) in enumerate(zip(self.weights_, self.biases_)):
            z = a @ w + b
            pre_activations.append(z)
            if layer == last:
                a = sigmoid(z)
            else:
                a = activation_fn(z)
            activations.append(a)
        return pre_activations, activations

    def _backprop(self, X: np.ndarray, y01: np.ndarray):
        _, activation_grad = _ACTIVATIONS[self.activation]
        pre_activations, activations = self._forward(X)
        n = X.shape[0]
        output = activations[-1][:, 0]
        clipped = np.clip(output, 1e-12, 1.0 - 1e-12)
        loss = float(
            -np.mean(y01 * np.log(clipped) + (1 - y01) * np.log(1 - clipped))
        )
        if self.alpha:
            loss += 0.5 * self.alpha * sum(float((w**2).sum()) for w in self.weights_)
        # Output delta for sigmoid + cross-entropy.
        delta = ((output - y01) / n)[:, None]
        grads_w = [None] * len(self.weights_)
        grads_b = [None] * len(self.biases_)
        for layer in range(len(self.weights_) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta + self.alpha * self.weights_[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights_[layer].T) * activation_grad(
                    pre_activations[layer - 1], activations[layer]
                )
        return grads_w, grads_b, loss

    def predict_proba(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "weights_")
        _, activations = self._forward(X)
        positive = activations[-1][:, 0]
        return np.column_stack([1.0 - positive, positive])
