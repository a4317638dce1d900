"""The split engine every tree learner grows on.

The seed implementation re-sorted every candidate feature at every node,
making tree growth ``O(nodes * features * n log n)``.
:class:`PresortedSplitEngine` restores the classic presort/partition
scheme: it sorts each feature **once per tree** and partitions the
per-feature sorted index lists down the recursion.  A stable partition
of a stably-sorted list is itself stably sorted, so every node sees
exactly the (values, targets) sequences the seed implementation
produced by re-sorting — splits, thresholds, and tie-breaking are
bit-for-bit identical while the per-node ``argsort`` disappears.

It is the one exact split search of every tree learner: a *split
criterion* says what a split is worth — :class:`ImpurityCriterion` for
classification trees (CART, forests, bagging, the decision jungle) and
:class:`VarianceCriterion` for regression trees (gradient boosting's
residual trees, ``DecisionTreeRegressor``).  The engine presents the
grower an opaque node *state*, ``node_stats``, ``best_split`` and
``partition``, and is deterministic: all randomness (feature
subsampling) stays in the grower's ``random_state``-threaded generator.
"""

from __future__ import annotations

import numpy as np

# Marks this module for repro perf's P306 rule (hot loops stay
# allocation-free); the analyzer reads it from the AST, not via import.
_COMPILED_SUBSTRATE = True  # repro: disable=F104 -- read by repro perf's P306 rule from the AST, not through imports

__all__ = [
    "ImpurityCriterion",
    "VarianceCriterion",
    "PresortedSplitEngine",
]

#: Gain threshold accepting zero-gain splits (classic CART grows to
#: purity; XOR is unlearnable otherwise) — recursion still terminates
#: because children are strictly smaller.
_GAIN_FLOOR = -1e-12


class ImpurityCriterion:
    """Classification: parent impurity minus weighted child impurity.

    The cumulative statistic is the 0/1 label; the parent statistic
    handed to ``best_split`` is the node's impurity.
    """

    def __init__(self, y01: np.ndarray, impurity_fn):
        self.target = y01
        self.impurity_fn = impurity_fn

    def gains(self, cumulative, left_count, right_count, n_node, parent):
        """Gain of every split position from cumulative label sums."""
        left = cumulative[:, :-1]
        right = cumulative[:, -1:] - left  # 0/1 sums: exact integers
        weighted = (
            left_count * self.impurity_fn(left / left_count)
            + right_count * self.impurity_fn(right / right_count)
        ) / n_node
        return parent - weighted

    def accepts(self, gain: float, parent: float) -> bool:
        """A pure node has nothing to gain; others need ``_GAIN_FLOOR``."""
        return parent > 0.0 and gain > _GAIN_FLOOR


class VarianceCriterion:
    """Regression: ``L**2 / nL + R**2 / nR`` over the target sums.

    Maximizing it minimizes the children's squared error.  The parent
    statistic is the node's target total, which the grower sums over
    the node's members in their original row order: ``ndarray.sum`` is
    pairwise, so any other order (feature 0's, say) changes the last
    bits.
    """

    def __init__(self, target: np.ndarray):
        self.target = target

    def gains(self, cumulative, left_count, right_count, n_node, parent):
        """Score of every split position from cumulative target sums."""
        left = cumulative[:, :-1]
        right = parent - left
        return left**2 / left_count + right**2 / right_count

    def accepts(self, gain: float, parent: float) -> bool:
        """No floor: the best valid position wins."""
        return True


class PresortedSplitEngine:
    """Exact split search over per-feature index lists sorted once.

    Node state is an ``(n_features, n_node)`` integer matrix whose row
    ``f`` holds the node's sample indices in ascending order of feature
    ``f`` (ties broken by original row position, exactly like a stable
    sort of the node's subarray).
    """

    def __init__(self, X: np.ndarray, criterion, min_samples_leaf: int):
        self.X = X
        self.criterion = criterion
        self.min_samples_leaf = min_samples_leaf
        # One stable sort per feature for the whole tree.
        self._root_order = np.ascontiguousarray(
            np.argsort(X, axis=0, kind="stable").T
        )
        self._all_features = np.arange(X.shape[1])
        # Scratch buffer reused to select index lists by membership.
        self._mask = np.zeros(X.shape[0], dtype=bool)
        # Left-child sizes 1..n as floats; nodes slice views off it.
        self._counts = np.arange(1.0, X.shape[0] + 1.0)

    def root_state(self) -> np.ndarray:
        """State covering every training sample."""
        return self._root_order

    def node_state(self, rows: np.ndarray) -> np.ndarray:
        """State of an arbitrary set of distinct sample indices.

        Masking the root order keeps each feature's list in its stable
        sorted order, so the result equals re-sorting the members.  Use
        it where a node is not one side of a split (a merged DAG node).
        """
        mask = self._mask
        mask[rows] = True
        take = mask[self._root_order]
        mask[rows] = False
        return self._root_order[take].reshape(len(self._root_order), rows.size)

    def node_stats(self, state: np.ndarray) -> tuple[int, float]:
        """``(n_samples, positive_fraction)`` of a classification node.

        The 0/1 label sum is exact in any order; regression growers sum
        their targets over row-ordered members instead.
        """
        n_node = state.shape[1]
        positives = self.criterion.target[state[0]].sum()
        return n_node, float(positives / n_node)

    def best_split(
        self, state: np.ndarray, feature_indices: np.ndarray, parent,
    ) -> tuple[int, float, int] | None:
        """Best ``(feature, threshold, split_at)`` over candidate features.

        ``parent`` is the criterion's parent statistic.  All candidate
        features are scanned as one ``(features, n)`` matrix —
        cumulative target sums and scores are computed in a handful of
        vectorized passes instead of one Python-level scan per feature.
        Selection order matches the sequential scan exactly: ``argmax``
        over the score matrix in row-major order returns the first
        feature (in ``feature_indices`` order) attaining the maximum, at
        its first-best position.
        """
        n_node = state.shape[1]
        if n_node < 2:
            return None
        features = np.asarray(feature_indices)
        if np.array_equal(features, self._all_features):
            orders = state  # every feature, in index order: no row gather
        else:
            orders = state[features]
        values = self.X[orders, features[:, None]]
        distinct = values[:, 1:] != values[:, :-1]
        if not distinct.any():
            return None
        left_count = self._counts[:n_node - 1]
        valid = distinct
        if self.min_samples_leaf > 1:
            inside = (left_count >= self.min_samples_leaf) & (
                left_count <= n_node - self.min_samples_leaf
            )
            valid = distinct & inside
            if not valid.any():
                return None
        cumulative = np.cumsum(self.criterion.target[orders], axis=1)
        gains = self.criterion.gains(
            cumulative, left_count, n_node - left_count, n_node, parent
        )
        gains[~valid] = -np.inf
        flat_best = int(np.argmax(gains))
        row, position = divmod(flat_best, n_node - 1)
        if not self.criterion.accepts(gains[row, position], parent):
            return None
        split_at = position + 1
        sorted_values = values[row]
        threshold = 0.5 * (
            sorted_values[split_at - 1] + sorted_values[split_at]
        )
        # Guard against midpoints rounding onto the right value.
        if threshold >= sorted_values[split_at]:
            threshold = sorted_values[split_at - 1]
        return int(features[row]), float(threshold), split_at

    def partition(
        self, state: np.ndarray, feature: int, threshold: float, split_at: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split the node's sorted index lists into left/right children.

        The first ``split_at`` entries of the split feature's order are
        exactly the samples with ``x[feature] <= threshold``; a boolean
        membership mask carries that set to every other feature's list
        while preserving order (stable partition).
        """
        left_members = state[feature, :split_at]
        mask = self._mask
        mask[left_members] = True
        take_left = mask[state]
        n_features, n_node = state.shape
        left = state[take_left].reshape(n_features, split_at)
        right = state[~take_left].reshape(n_features, n_node - split_at)
        mask[left_members] = False
        return left, right
