"""Bootstrap aggregating (Breiman 1996).

BigML's "Bagging"/ensemble model and scikit-learn's BaggingClassifier
(Table 1: n_estimators, max_features).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, clone
from repro.learn.tree.cart import DecisionTreeClassifier
from repro.learn.tree.flat import stack_trees
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = ["BaggingClassifier"]


class BaggingClassifier(BaseEstimator, ClassifierMixin):
    """Average of base classifiers trained on bootstrap resamples.

    Parameters
    ----------
    base_estimator : estimator or None
        Prototype cloned for each member; a full decision tree by default.
    n_estimators : int
        Ensemble size.
    max_samples : float
        Bootstrap sample size as a fraction of the training set.
    max_features : None, "sqrt", "log2", int, or float
        Feature subsampling passed through to tree members.
    random_state : int, Generator, or None
        Seed for resampling and member seeding.
    """

    def __init__(
        self,
        base_estimator=None,
        n_estimators: int = 10,
        max_samples: float = 1.0,
        max_features=None,
        random_state=None,
    ):
        self.base_estimator = base_estimator
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.max_features = max_features
        self.random_state = random_state

    def _make_member(self, rng: np.random.Generator):
        if self.base_estimator is None:
            member = DecisionTreeClassifier(max_features=self.max_features)
        else:
            member = clone(self.base_estimator)
            if self.max_features is not None and "max_features" in member._param_names():
                member.set_params(max_features=self.max_features)
        if "random_state" in member._param_names():
            member.set_params(random_state=int(rng.integers(0, 2**31)))
        return member

    def fit(self, X, y) -> "BaggingClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        if self.n_estimators < 1:
            raise ValidationError(
                f"n_estimators must be >= 1, got {self.n_estimators}"
            )
        if not 0.0 < self.max_samples <= 1.0:
            raise ValidationError(
                f"max_samples must be in (0, 1], got {self.max_samples}"
            )
        self.classes_ = check_binary_labels(y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        n_draw = max(2, int(round(self.max_samples * n_samples)))
        self.estimators_ = []
        for _ in range(self.n_estimators):
            # Resample until the bootstrap contains both classes, so every
            # member is a valid binary classifier.
            for _attempt in range(20):
                indices = rng.integers(0, n_samples, size=n_draw)
                if len(np.unique(y[indices])) == 2:
                    break
            member = self._make_member(rng)
            member.fit(X[indices], y[indices])
            self.estimators_.append(member)
        # When every member is a compiled tree, stack them so prediction
        # is one batched array walk instead of a per-member Python loop.
        if all(hasattr(member, "flat_tree_") for member in self.estimators_):
            self.flat_forest_ = stack_trees(
                [member.flat_tree_ for member in self.estimators_]
            )
        else:
            self.flat_forest_ = None
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "estimators_")
        votes = np.zeros(X.shape[0])
        if self.flat_forest_ is not None:
            # Batched evaluation; accumulation stays member-by-member so
            # the result is bit-identical to the sequential loop below.
            for row in self.flat_forest_.predict_values(X):
                votes += row
        else:
            for member in self.estimators_:
                if hasattr(member, "predict_proba"):
                    votes += member.predict_proba(X)[:, 1]
                else:
                    votes += (member.predict(X) == self.classes_[1]).astype(np.float64)
        positive = votes / len(self.estimators_)
        return np.column_stack([1.0 - positive, positive])
