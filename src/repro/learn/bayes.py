"""Naive Bayes classifiers.

PredictionIO's Naive Bayes (single ``lambda`` smoothing parameter, Table 1)
and scikit-learn's GaussianNB (tunable class prior) are both represented.
The paper's §6 family analysis places NB in the linear family (Table 5) —
Gaussian NB with shared-ish variances induces a near-linear boundary.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_X_y,
)

__all__ = ["GaussianNB", "BernoulliNB"]


class GaussianNB(BaseEstimator, ClassifierMixin):
    """Gaussian Naive Bayes with variance smoothing.

    Parameters
    ----------
    priors : sequence of 2 floats, or None
        Class prior probabilities; estimated from data when ``None``.
    var_smoothing : float
        Fraction of the largest feature variance added to every variance
        for numerical stability (PredictionIO's ``lambda`` analogue).
    """

    def __init__(self, priors=None, var_smoothing: float = 1e-9):
        self.priors = priors
        self.var_smoothing = var_smoothing

    def fit(self, X, y) -> "GaussianNB":
        X, y = check_X_y(X, y, min_samples=2)
        self.classes_ = check_binary_labels(y)
        if self.var_smoothing < 0:
            raise ValidationError("var_smoothing must be non-negative")
        n_classes = len(self.classes_)
        n_features = X.shape[1]
        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        counts = np.zeros(n_classes)
        for k, c in enumerate(self.classes_):
            Xc = X[y == c]
            counts[k] = Xc.shape[0]
            self.theta_[k] = Xc.mean(axis=0)
            self.var_[k] = Xc.var(axis=0)
        epsilon = self.var_smoothing * max(float(X.var(axis=0).max()), 1e-12)
        self.var_ += epsilon
        self.var_ = np.maximum(self.var_, 1e-12)
        if self.priors is None:
            self.class_prior_ = counts / counts.sum()
        else:
            priors = np.asarray(self.priors, dtype=np.float64)
            if priors.shape != (n_classes,) or not np.isclose(priors.sum(), 1.0):
                raise ValidationError(
                    f"priors must be {n_classes} probabilities summing to 1"
                )
            self.class_prior_ = priors
        self.n_features_in_ = n_features
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = check_predict_input(self, X, "theta_")
        jll = np.zeros((X.shape[0], len(self.classes_)))
        for k in range(len(self.classes_)):
            log_prior = np.log(self.class_prior_[k] + 1e-300)
            gauss = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[k])
                + (X - self.theta_[k]) ** 2 / self.var_[k],
                axis=1,
            )
            jll[:, k] = log_prior + gauss
        return jll

    def predict(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(jll, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        probabilities = np.exp(jll)
        return probabilities / probabilities.sum(axis=1, keepdims=True)


class BernoulliNB(BaseEstimator, ClassifierMixin):
    """Bernoulli Naive Bayes over binarized features.

    Parameters
    ----------
    alpha : float
        Laplace/Lidstone smoothing (PredictionIO's ``lambda``).
    binarize : float
        Threshold mapping features to {0, 1} before fitting.
    """

    def __init__(self, alpha: float = 1.0, binarize: float = 0.0):
        self.alpha = alpha
        self.binarize = binarize

    def fit(self, X, y) -> "BernoulliNB":
        X, y = check_X_y(X, y, min_samples=2)
        if self.alpha < 0:
            raise ValidationError("alpha must be non-negative")
        self.classes_ = check_binary_labels(y)
        X_bin = (X > self.binarize).astype(np.float64)
        n_classes = len(self.classes_)
        self.feature_log_prob_ = np.zeros((n_classes, X.shape[1], 2))
        counts = np.zeros(n_classes)
        for k, c in enumerate(self.classes_):
            Xc = X_bin[y == c]
            counts[k] = Xc.shape[0]
            p_one = (Xc.sum(axis=0) + self.alpha) / (Xc.shape[0] + 2.0 * self.alpha)
            p_one = np.clip(p_one, 1e-12, 1.0 - 1e-12)
            self.feature_log_prob_[k, :, 1] = np.log(p_one)
            self.feature_log_prob_[k, :, 0] = np.log(1.0 - p_one)
        self.class_log_prior_ = np.log(counts / counts.sum())
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "feature_log_prob_")
        X_bin = (X > self.binarize).astype(np.intp)
        jll = np.zeros((X.shape[0], len(self.classes_)))
        for k in range(len(self.classes_)):
            log_p = self.feature_log_prob_[k]
            jll[:, k] = self.class_log_prior_[k] + (
                X_bin * log_p[:, 1] + (1 - X_bin) * log_p[:, 0]
            ).sum(axis=1)
        return self.classes_[np.argmax(jll, axis=1)]
