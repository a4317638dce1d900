"""Random Forests (Breiman 2001).

Table 1: BigML (node threshold, number of models, ordering), Microsoft
(resampling, #trees, max depth, #random splits, min samples per leaf) and
the local library (n_estimators, max_features) all expose Random Forests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, check_is_fitted
from repro.learn.tree.cart import DecisionTreeClassifier
from repro.learn.tree.flat import stack_trees
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap ensemble of feature-subsampling CART trees.

    Parameters
    ----------
    n_estimators : int
        Number of trees.
    criterion : {"gini", "entropy"}
        Split criterion for every tree.
    max_depth : int or None
        Per-tree depth cap.
    min_samples_leaf : int
        Minimum samples per leaf in every tree.
    max_features : "sqrt", "log2", None, int, or float
        Features considered per split; "sqrt" is the classic forest choice.
    bootstrap : bool
        Draw a bootstrap resample per tree (``False`` = whole set, Azure's
        "resampling method" knob).
    random_state : int, Generator, or None
        Seed for all randomness.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        if self.n_estimators < 1:
            raise ValidationError(
                f"n_estimators must be >= 1, got {self.n_estimators}"
            )
        self.classes_ = check_binary_labels(y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        self.estimators_ = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31)),
            )
            if self.bootstrap:
                for _attempt in range(20):
                    indices = rng.integers(0, n_samples, size=n_samples)
                    if len(np.unique(y[indices])) == 2:
                        break
                tree.fit(X[indices], y[indices])
            else:
                tree.fit(X, y)
            self.estimators_.append(tree)
        # Stack the compiled trees so inference is one lock-step array
        # walk over the whole forest instead of a per-tree Python loop.
        self.flat_forest_ = stack_trees(
            [tree.flat_tree_ for tree in self.estimators_]
        )
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "estimators_")
        # Same reduction as np.mean over per-tree probability rows — the
        # stacked flat evaluation yields bit-identical per-tree values.
        positive = np.mean(self.flat_forest_.predict_values(X), axis=0)
        return np.column_stack([1.0 - positive, positive])

    def feature_importances(self) -> np.ndarray:
        """Frequency of each feature across all split nodes (normalized)."""
        check_is_fitted(self, "estimators_")
        counts = np.zeros(self.n_features_in_)
        for tree in self.estimators_:
            stack = [tree.tree_]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    counts[node.feature] += node.n_samples
                    stack.append(node.left)
                    stack.append(node.right)
        total = counts.sum()
        return counts / total if total else counts
