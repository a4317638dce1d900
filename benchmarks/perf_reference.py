"""Seed-era hot-path implementations, kept verbatim as bench baselines.

These functions re-implement the pre-vectorization bodies of the
hotspots the perf analyzer flagged (P301 axis loops in the filter scorers,
the per-index fold assembly in ``StratifiedKFold``) and the per-step
training loops of the online linear learners, so that
``bench_perf_hotspots.py`` and ``tests/learn/test_perf_equivalence.py``
can measure and assert the optimized versions against the exact seed
behavior.  The learner references subclass the shipped estimators and
override only the training method, so validation, label handling and
prediction are the shipped code.  Arithmetic order and RNG consumption are identical, which is
what makes "bit-identical outputs" a testable claim rather than a
tolerance check.

Not collected by pytest (no ``test_``/``bench_`` prefix); imported by
the bench and the equivalence tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.linear import (
    AveragedPerceptron,
    BayesPointMachine,
    LinearSVC,
    LogisticRegression,
)
from repro.learn.validation import check_X_y, check_random_state

__all__ = [
    "ReferenceAveragedPerceptron",
    "ReferenceBayesPointMachine",
    "ReferenceLinearSVC",
    "ReferenceLogisticRegression",
    "ReferenceStratifiedKFold",
    "reference_mutual_info_score",
]


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def reference_mutual_info_score(X, y, n_bins: int = 10) -> np.ndarray:
    """Seed MI scorer: Python loop over bins x classes per feature."""
    X, y = check_X_y(X, y)
    y01 = (y == np.unique(y)[-1]).astype(int)
    n_samples = X.shape[0]
    class_prob = np.bincount(y01, minlength=2) / n_samples
    scores = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        column = X[:, j]
        lo, hi = column.min(), column.max()
        if lo == hi:
            continue
        bins = np.linspace(lo, hi, n_bins + 1)
        codes = np.clip(np.digitize(column, bins[1:-1]), 0, n_bins - 1)
        mi = 0.0
        for b in range(n_bins):
            in_bin = codes == b
            p_bin = in_bin.mean()
            if p_bin == 0.0:
                continue
            for c in (0, 1):
                p_joint = np.mean(in_bin & (y01 == c))
                if p_joint > 0.0 and class_prob[c] > 0.0:
                    mi += p_joint * np.log(p_joint / (p_bin * class_prob[c]))
        scores[j] = max(mi, 0.0)
    return scores


class ReferenceStratifiedKFold:
    """Seed splitter: per-index Python list assembly of each fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True,
                 random_state=None):
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y):
        y = np.asarray(y)
        rng = check_random_state(self.random_state)
        per_fold = [[] for _ in range(self.n_splits)]
        for c in np.unique(y):
            members = np.flatnonzero(y == c)
            if self.shuffle:
                members = members[rng.permutation(members.size)]
            for position, index in enumerate(members):
                per_fold[position % self.n_splits].append(int(index))
        for k in range(self.n_splits):
            test = np.array(sorted(per_fold[k]), dtype=int)
            train = np.array(
                sorted(i for j in range(self.n_splits) if j != k
                       for i in per_fold[j]),
                dtype=int,
            )
            yield train, test


class ReferenceLogisticRegression(LogisticRegression):
    """Seed SGD solver: two fancy-index gathers and a fresh sigmoid per
    minibatch."""

    def _fit_sgd(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        alpha = 0.0 if self.penalty == "none" else 1.0 / (self.C * n_samples)
        w = np.zeros(n_features)
        b = 0.0
        step0 = 1.0
        t = 0
        batch = min(self._BATCH, n_samples)
        previous_loss = np.inf
        for epoch in range(self.max_iter):
            order = rng.permutation(n_samples) if self.shuffle else np.arange(n_samples)
            for start in range(0, n_samples, batch):
                rows = order[start : start + batch]
                t += rows.size
                eta = step0 / (1.0 + step0 * alpha * t) if alpha else step0 / np.sqrt(t)
                margins = y[rows] * (X[rows] @ w + b)
                # d loss / d margin averaged over the minibatch.
                gradient_scales = -y[rows] * _reference_sigmoid(-margins) / rows.size
                if self.penalty == "l2":
                    w *= 1.0 - eta * alpha
                w -= eta * (X[rows].T @ gradient_scales)
                if self.fit_intercept:
                    b -= eta * float(gradient_scales.sum())
                if self.penalty == "l1":
                    # Soft-threshold (proximal step for the L1 term).
                    shrink = eta * alpha
                    w = np.sign(w) * np.maximum(np.abs(w) - shrink, 0.0)
            margins = y * (X @ w + b)
            loss = float(np.logaddexp(0.0, -margins).mean())
            if self.penalty == "l2":
                loss += 0.5 * alpha * float(w @ w)
            elif self.penalty == "l1":
                loss += alpha * float(np.abs(w).sum())
            if abs(previous_loss - loss) < self.tol:
                self.n_iter_ = epoch + 1
                break
            previous_loss = loss
        else:
            self.n_iter_ = self.max_iter
        self.coef_ = w
        self.intercept_ = float(b) if self.fit_intercept else 0.0


class ReferenceLinearSVC(LinearSVC):
    """Seed Pegasos loop: numpy scalars per sample, ``np.linalg.norm``
    per step."""

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
        previous_objective = np.inf
        for epoch in range(self.max_iter):
            for i in rng.permutation(n_samples):
                t += 1
                eta = 1.0 / (lam * t)
                margin = y[i] * (X[i] @ w + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    if self.loss == "hinge":
                        gradient_scale = -y[i]
                    else:
                        gradient_scale = -2.0 * max(1.0 - margin, 0.0) * y[i]
                    w -= eta * gradient_scale * X[i]
                    if self.fit_intercept:
                        # Smaller, decaying step for the unregularized bias.
                        b -= (eta * lam) * gradient_scale
                norm = np.linalg.norm(w)
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


class ReferenceBayesPointMachine(BayesPointMachine):
    """Seed member loop: numpy scalars per sample, ``np.linalg.norm``."""

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
        for m in range(self.n_members):
            w = rng.normal(scale=0.01, size=n_features)
            b = 0.0
            for _ in range(self.n_iter):
                mistakes = 0
                for i in rng.permutation(n_samples):
                    if y[i] * (X[i] @ w + b) <= 0.0:
                        w += y[i] * X[i]
                        b += y[i]
                        mistakes += 1
                if mistakes == 0:
                    break
            norm = np.linalg.norm(w)
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


class ReferenceAveragedPerceptron(AveragedPerceptron):
    """Seed perceptron loop: numpy scalars and index arrays per sample."""

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
        for _ in range(self.max_iter):
            indices = rng.permutation(n_samples) if self.shuffle else np.arange(n_samples)
            mistakes_last_epoch = 0
            for i in indices:
                if y[i] * (X[i] @ w + b) <= 0.0:
                    update = self.learning_rate * y[i]
                    w += update * X[i]
                    b += update
                    u += counter * update * X[i]
                    beta += counter * update
                    mistakes_last_epoch += 1
                counter += 1.0
            if mistakes_last_epoch == 0:
                break
        self.coef_ = w - u / counter
        self.intercept_ = float(b - beta / counter)
        self.mistakes_ = mistakes_last_epoch
