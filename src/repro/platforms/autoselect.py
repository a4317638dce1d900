"""Server-side automatic classifier selection for black-box platforms.

Section 6 of the paper finds "clear evidence that fully automated
(black-box) systems like Google and ABM are using server-side tests to
automate classifier choices, including differentiating between linear and
non-linear classifiers" — and that "their mechanisms occasionally err and
choose suboptimal classifiers."

:class:`AutoClassifierSelector` reproduces that policy: it cross-validates
one linear candidate against one non-linear candidate on (a subsample of)
the uploaded training data and deploys the winner.  Selection on a small
subsample with few folds is exactly what makes the mechanism cheap *and*
occasionally wrong, matching the paper's observation without any
hard-coded mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.learn.base import BaseEstimator, clone
from repro.learn.metrics import f_score
from repro.learn.model_selection import StratifiedKFold
from repro.learn.validation import check_X_y, check_random_state

__all__ = ["AutoClassifierSelector", "SelectionOutcome"]


@dataclass(frozen=True)
class SelectionOutcome:
    """Record of one internal selection decision (for analysis/tests)."""

    chosen_family: str        # "linear" or "nonlinear"
    linear_score: float
    nonlinear_score: float
    n_probe_samples: int


class AutoClassifierSelector:
    """Pick between a linear and a non-linear classifier via internal CV.

    Parameters
    ----------
    linear_candidate : estimator
        The linear model deployed when the data looks linearly separable.
    nonlinear_candidate : estimator
        The non-linear model deployed otherwise.  Google's boundary on
        CIRCLE looks kernel-smooth while ABM's looks axis-aligned
        (Fig 10), so Google uses a smooth candidate and ABM a tree.
    probe_size : int
        Maximum training subsample used for the internal test — the
        source of occasional wrong choices on noisy datasets.
    n_folds : int
        Internal cross-validation folds.
    margin : float
        The non-linear candidate must beat the linear one by this margin
        to be chosen; biases the service toward the cheaper linear model
        (matching §6.2: Google chose linear on ~61% of datasets).
    random_state : int, Generator, or None
        Seed for subsampling and folds.
    """

    def __init__(
        self,
        linear_candidate: BaseEstimator,
        nonlinear_candidate: BaseEstimator,
        probe_size: int = 500,
        n_folds: int = 3,
        margin: float = 0.01,
        random_state=None,
    ):
        self.linear_candidate = linear_candidate
        self.nonlinear_candidate = nonlinear_candidate
        self.probe_size = probe_size
        self.n_folds = n_folds
        self.margin = margin
        self.random_state = random_state

    def _probe_indices(self, y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n_samples = y.shape[0]
        if n_samples <= self.probe_size:
            return np.arange(n_samples)
        # Stratified subsample keeps both classes in the probe.
        chosen: list[int] = []
        for c in np.unique(y):
            members = np.flatnonzero(y == c)
            share = max(2, int(round(self.probe_size * members.size / n_samples)))
            share = min(share, members.size)
            chosen.extend(rng.choice(members, size=share, replace=False).tolist())
        return np.array(sorted(chosen), dtype=int)

    def _cv_score(self, estimator: BaseEstimator, X, y, rng) -> float:
        classes = np.unique(y)
        if classes.size < 2:
            raise ValidationError(
                "automatic classifier selection needs both classes in the "
                f"training data, got only {classes.tolist()}"
            )
        n_folds = min(self.n_folds, int(np.min(np.bincount(
            (y == classes[1]).astype(int)
        ))))
        if n_folds < 2:
            # Degenerate probe: fall back to training-fit comparison.
            model = clone(estimator)
            model.fit(X, y)
            return f_score(y, model.predict(X))
        splitter = StratifiedKFold(
            n_splits=n_folds, shuffle=True,
            random_state=int(rng.integers(0, 2**31)),
        )
        scores = []
        # repro: disable=P304 -- probe fits see a freshly seeded fold split per call, so cached fits would never be hit
        for train, test in splitter.split(X, y):
            if len(np.unique(y[train])) < 2:
                continue
            model = clone(estimator)
            try:
                model.fit(X[train], y[train])
                scores.append(f_score(y[test], model.predict(X[test])))
            except ReproError:
                # A candidate that cannot fit a fold loses that fold; the
                # server-side probe never surfaces errors to the client.
                scores.append(0.0)
        return float(np.mean(scores)) if scores else 0.0

    def select(self, X: np.ndarray, y: np.ndarray) -> tuple[BaseEstimator, SelectionOutcome]:
        """Return the winning (unfitted) estimator and the decision record."""
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        probe = self._probe_indices(y, rng)
        X_probe, y_probe = X[probe], y[probe]
        linear_score = self._cv_score(self.linear_candidate, X_probe, y_probe, rng)
        nonlinear_score = self._cv_score(self.nonlinear_candidate, X_probe, y_probe, rng)
        if nonlinear_score > linear_score + self.margin:
            winner = clone(self.nonlinear_candidate)
            family = "nonlinear"
        else:
            winner = clone(self.linear_candidate)
            family = "linear"
        outcome = SelectionOutcome(
            chosen_family=family,
            linear_score=linear_score,
            nonlinear_score=nonlinear_score,
            n_probe_samples=int(probe.size),
        )
        return winner, outcome
