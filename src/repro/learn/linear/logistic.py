"""Logistic Regression — the one classifier every platform supports.

The paper uses Logistic Regression with platform-default parameters as the
zero-control *baseline* configuration (§3.2) because it is the only
classifier available on all four platforms that expose classifier choice.

Supports L1/L2 penalties and two solvers: ``lbfgs`` (scipy's L-BFGS-B on
the smooth L2 objective) and ``saga``-style proximal SGD handling both
penalties.  Mirrors Table 1's tunable parameters (penalty, C, solver).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import sigmoid
from repro.learn.linear.base import LinearBinaryClassifier
from repro.learn.validation import check_random_state

__all__ = ["LogisticRegression"]


class LogisticRegression(LinearBinaryClassifier):
    """Binary logistic regression with L1/L2 regularization.

    Parameters
    ----------
    penalty : {"l2", "l1", "none"}
        Regularization type.  ``lbfgs`` supports only "l2"/"none".
    C : float
        Inverse regularization strength (larger = weaker regularization).
    solver : {"lbfgs", "sgd"}
        Optimizer.  "lbfgs" uses scipy's quasi-Newton minimizer on the full
        objective; "sgd" is proximal stochastic gradient descent and
        supports the L1 penalty.
    max_iter : int
        Iteration budget (L-BFGS iterations, or SGD epochs).
    tol : float
        Convergence tolerance.
    fit_intercept : bool
        Learn an additive bias term.
    shuffle : bool
        Reshuffle sample order each SGD epoch (Amazon's ``shuffleType``);
        ignored by the lbfgs solver.
    random_state : int, Generator, or None
        Seed for SGD shuffling.
    """

    def __init__(
        self,
        penalty: str = "l2",
        C: float = 1.0,
        solver: str = "lbfgs",
        max_iter: int = 200,
        tol: float = 1e-5,
        fit_intercept: bool = True,
        shuffle: bool = True,
        random_state=None,
    ):
        self.penalty = penalty
        self.C = C
        self.solver = solver
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.shuffle = shuffle
        self.random_state = random_state

    def _fit_signed(self, X: np.ndarray, y_signed: np.ndarray) -> None:
        if self.penalty not in ("l1", "l2", "none"):
            raise ValidationError(f"unknown penalty {self.penalty!r}")
        if self.C <= 0:
            raise ValidationError(f"C must be positive, got {self.C}")
        if self.solver == "lbfgs":
            if self.penalty == "l1":
                raise ValidationError(
                    "the lbfgs solver does not support the l1 penalty; "
                    "use solver='sgd'"
                )
            self._fit_lbfgs(X, y_signed)
        elif self.solver == "sgd":
            self._fit_sgd(X, y_signed)
        else:
            raise ValidationError(f"unknown solver {self.solver!r}")

    # -- L-BFGS on the full-batch objective --------------------------------

    def _fit_lbfgs(self, X: np.ndarray, y: np.ndarray) -> None:
        from scipy.optimize import minimize

        n_samples, n_features = X.shape
        alpha = 0.0 if self.penalty == "none" else 1.0 / (self.C * n_samples)

        def objective(w_full: np.ndarray):
            w = w_full[:n_features]
            b = w_full[n_features] if self.fit_intercept else 0.0
            margins = y * (X @ w + b)
            # log(1 + exp(-m)) computed stably.
            losses = np.logaddexp(0.0, -margins)
            loss = losses.mean() + 0.5 * alpha * (w @ w)
            probs = sigmoid(-margins)  # d loss / d margin = -p
            grad_w = -(X.T @ (y * probs)) / n_samples + alpha * w
            grad = np.empty_like(w_full)
            grad[:n_features] = grad_w
            if self.fit_intercept:
                grad[n_features] = -(y * probs).mean()
            return loss, grad

        size = n_features + (1 if self.fit_intercept else 0)
        result = minimize(
            objective,
            np.zeros(size),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        w_full = result.x
        self.coef_ = w_full[:n_features]
        self.intercept_ = float(w_full[n_features]) if self.fit_intercept else 0.0
        self.n_iter_ = int(result.nit)

    # -- proximal SGD (supports L1) ----------------------------------------

    #: Minibatch size for the SGD solver.  Batched updates are vectorized
    #: over numpy, which is what makes large grid sweeps tractable.
    _BATCH = 32

    def _fit_sgd(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        alpha = 0.0 if self.penalty == "none" else 1.0 / (self.C * n_samples)
        w = np.zeros(n_features)
        b = 0.0
        step0 = 1.0
        t = 0
        batch = min(self._BATCH, n_samples)
        # Each minibatch is a contiguous slice of the epoch's rows gathered
        # into one C-ordered copy: the same bits as gathering ``X[rows]``
        # per minibatch, whatever the memory order of ``X``.
        X_epoch = np.ascontiguousarray(X)
        negated = y_epoch = -y
        previous_loss = np.inf
        for epoch in range(self.max_iter):
            if self.shuffle:
                order = rng.permutation(n_samples)
                X_epoch = X[order]
                y_epoch = negated[order]
            for start in range(0, n_samples, batch):
                X_batch = X_epoch[start : start + batch]
                y_batch = y_epoch[start : start + batch]
                size = y_batch.shape[0]
                t += size
                eta = step0 / (1.0 + step0 * alpha * t) if alpha else step0 / math.sqrt(t)
                # d loss / d margin averaged over the minibatch:
                # -y * sigmoid(-margin) / size, margin = y * (X @ w + b),
                # with y_batch holding -y.
                scales = X_batch @ w
                scales += b
                scales *= y_batch
                sigmoid(scales, out=scales)
                scales *= y_batch
                scales /= size
                if self.penalty == "l2":
                    w *= 1.0 - eta * alpha
                w -= eta * (X_batch.T @ scales)
                if self.fit_intercept:
                    b -= eta * float(np.add.reduce(scales))
                if self.penalty == "l1":
                    # Soft-threshold (proximal step for the L1 term).
                    shrink = eta * alpha
                    w = np.sign(w) * np.maximum(np.abs(w) - shrink, 0.0)
            losses = X @ w
            losses += b
            losses *= negated
            np.logaddexp(0.0, losses, out=losses)
            loss = float(np.add.reduce(losses)) / n_samples
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
