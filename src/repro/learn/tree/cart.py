"""CART decision tree for binary classification.

Available (with varying knobs) on BigML, PredictionIO, Microsoft and the
local library (Table 1).  Growing runs on the presorted split engine in
:mod:`repro.learn.tree.splitter`, which sorts every feature once per
tree and partitions the sorted index lists down the recursion
(bit-identical splits to re-sorting at every node, without the per-node
``argsort``).  Fitted trees are additionally lowered into compiled flat
arrays (:mod:`repro.learn.tree.flat`) so prediction is a vectorized
level-wise array walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, check_is_fitted
from repro.learn.tree.criteria import criterion_function
from repro.learn.tree.flat import flatten_tree
from repro.learn.tree.splitter import ImpurityCriterion, PresortedSplitEngine
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = ["DecisionTreeClassifier", "TreeNode"]


@dataclass
class TreeNode:
    """A node of a fitted tree.

    Leaves have ``feature == -1``; internal nodes route samples with
    ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    """

    positive_fraction: float
    n_samples: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    depth: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.feature == -1

    def count_leaves(self) -> int:
        """Number of leaves under this node."""
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()

    def max_depth(self) -> int:
        """Depth of the deepest leaf under this node."""
        if self.is_leaf:
            return self.depth
        return max(self.left.max_depth(), self.right.max_depth())


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate a max_features spec into a concrete count."""
    if max_features is None or max_features == "all":
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValidationError(
                f"fractional max_features must be in (0, 1], got {max_features}"
            )
        return max(1, int(round(max_features * n_features)))
    count = int(max_features)
    if count < 1:
        raise ValidationError(f"max_features must be >= 1, got {count}")
    return min(count, n_features)


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """Binary CART tree.

    Parameters
    ----------
    criterion : {"gini", "entropy"}
        Impurity measure for split quality.
    max_depth : int or None
        Depth cap; ``None`` grows until pure or unsplittable.
    min_samples_split : int
        Minimum samples required to consider splitting a node.
    min_samples_leaf : int
        Minimum samples in each child (BigML's "node threshold").
    max_features : None, "all", "sqrt", "log2", int, or float
        Features examined per split; sampled randomly when fewer than all
        (the randomization behind Random Forests).
    random_state : int, Generator, or None
        Seed for feature subsampling.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y, sample_indices: np.ndarray | None = None) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y, min_samples=1)
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")
        self.classes_ = check_binary_labels(y)
        y01 = (y == self.classes_[1]).astype(np.float64)
        if sample_indices is not None:
            X = X[sample_indices]
            y01 = y01[sample_indices]
        rng = check_random_state(self.random_state)
        impurity_fn = criterion_function(self.criterion)
        n_candidate_features = _resolve_max_features(self.max_features, X.shape[1])
        self.n_features_in_ = X.shape[1]
        self.tree_ = self._build_tree(
            X, y01, rng=rng, impurity_fn=impurity_fn,
            n_candidate_features=n_candidate_features,
        )
        self.flat_tree_ = flatten_tree(self.tree_)
        return self

    def _build_tree(
        self,
        X: np.ndarray,
        y01: np.ndarray,
        rng: np.random.Generator,
        impurity_fn,
        n_candidate_features: int,
    ) -> TreeNode:
        """Grow the TreeNode graph on the presorted split engine."""
        engine = PresortedSplitEngine(
            X, ImpurityCriterion(y01, impurity_fn), self.min_samples_leaf
        )
        return self._grow(
            engine, engine.root_state(), depth=0, rng=rng,
            impurity_fn=impurity_fn,
            n_candidate_features=n_candidate_features,
            n_features=X.shape[1],
        )

    def _grow(
        self,
        engine,
        state,
        depth: int,
        rng: np.random.Generator,
        impurity_fn,
        n_candidate_features: int,
        n_features: int,
    ) -> TreeNode:
        n_node, positive_fraction = engine.node_stats(state)
        node = TreeNode(
            positive_fraction=positive_fraction,
            n_samples=n_node,
            depth=depth,
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or n_node < self.min_samples_split
            or positive_fraction in (0.0, 1.0)
        ):
            return node
        if n_candidate_features < n_features:
            feature_indices = rng.choice(
                n_features, size=n_candidate_features, replace=False
            )
        else:
            feature_indices = np.arange(n_features)
        parent_impurity = float(impurity_fn(positive_fraction))
        if parent_impurity == 0.0:
            return node
        split = engine.best_split(state, feature_indices, parent_impurity)
        if split is None:
            return node
        feature, threshold, split_at = split
        left_state, right_state = engine.partition(
            state, feature, threshold, split_at
        )
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            engine, left_state, depth + 1, rng, impurity_fn,
            n_candidate_features, n_features,
        )
        node.right = self._grow(
            engine, right_state, depth + 1, rng, impurity_fn,
            n_candidate_features, n_features,
        )
        return node

    def _positive_fractions(self, X: np.ndarray) -> np.ndarray:
        """Route every sample to its leaf via the compiled flat tree."""
        return self.flat_tree_.predict_value(X)

    def predict_proba(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "tree_")
        positive = self._positive_fractions(X)
        return np.column_stack([1.0 - positive, positive])

    # Introspection helpers used by tests and analysis.

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.count_leaves()

    def depth(self) -> int:
        """Depth of the fitted tree (root = 0)."""
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth()
