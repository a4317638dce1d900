"""Split-search engines for tree growing: presorted exact and histogram.

The seed implementation re-sorted every candidate feature at every node,
making tree growth ``O(nodes * features * n log n)``.  The engines here
restore the classic presort/partition scheme and add an opt-in binned
mode:

``PresortedSplitEngine`` (the default, ``splitter="exact"``)
    Sorts each feature **once per tree** and partitions the per-feature
    sorted index lists down the recursion.  A stable partition of a
    stably-sorted list is itself stably sorted, so every node sees
    exactly the (values, targets) sequences the seed implementation
    produced by re-sorting — splits, thresholds, and tie-breaking are
    bit-for-bit identical while the per-node ``argsort`` disappears.
    It is the one exact split search of every tree learner: a *split
    criterion* says what a split is worth — :class:`ImpurityCriterion`
    for classification trees (CART, forests, bagging, the decision
    jungle) and :class:`VarianceCriterion` for regression trees
    (gradient boosting's residual trees, ``DecisionTreeRegressor``).

``HistogramSplitEngine`` (opt-in, ``splitter="hist"``, classification)
    LightGBM-style binned split finding (Ke et al., NeurIPS 2017): each
    feature is quantile-binned once per fit and candidate thresholds are
    bin upper edges, so a node's split search is one ``bincount`` per
    feature instead of a scan over every distinct value.  When a feature
    has at most ``max_bins`` distinct values its bin edges are the exact
    midpoint thresholds, making the histogram search coincide with the
    exact one on small-cardinality data.

Both engines present the same interface to the grower — an opaque node
*state*, ``node_stats``, ``best_split``, and ``partition`` — and both
are deterministic: all randomness (feature subsampling) stays in the
grower's ``random_state``-threaded generator.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

# Marks this module for repro perf's P306 rule (hot loops stay
# allocation-free); the analyzer reads it from the AST, not via import.
_COMPILED_SUBSTRATE = True  # repro: disable=F104 -- read by repro perf's P306 rule from the AST, not through imports

__all__ = [
    "ImpurityCriterion",
    "VarianceCriterion",
    "PresortedSplitEngine",
    "HistogramSplitEngine",
    "make_split_engine",
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


def _bin_edges(values: np.ndarray, max_bins: int) -> np.ndarray:
    """Ascending candidate thresholds (bin upper edges) for one feature.

    With at most ``max_bins`` distinct values the edges are the exact
    CART midpoints (including the rounding guard); otherwise interior
    quantiles of the value distribution.
    """
    unique = np.unique(values)
    if unique.size <= 1:
        return np.empty(0)
    if unique.size <= max_bins:
        edges = 0.5 * (unique[:-1] + unique[1:])
        # Same guard as the exact scan: a midpoint must route its left
        # value left, so it may never round up onto the right value.
        rounded_up = edges >= unique[1:]
        edges[rounded_up] = unique[:-1][rounded_up]
        return edges
    quantiles = np.quantile(
        values, np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    )
    edges = np.unique(quantiles)
    return edges[edges < unique[-1]]


class HistogramSplitEngine:
    """Binned split search: one ``bincount`` per feature per node.

    Node state is a plain array of the node's sample indices.  Features
    are quantile-binned once per fit; a split between bins ``b`` and
    ``b+1`` routes ``x <= edges[b]`` left, so fitted thresholds are real
    feature-space values and prediction needs no binning.
    """

    def __init__(self, X: np.ndarray, y01: np.ndarray,
                 impurity_fn, min_samples_leaf: int, max_bins: int):
        if max_bins < 2:
            raise ValidationError(f"max_bins must be >= 2, got {max_bins}")
        self.X = X
        self.y01 = y01
        self.impurity_fn = impurity_fn
        self.min_samples_leaf = min_samples_leaf
        self.edges: list[np.ndarray] = []
        self.codes = np.empty(X.shape, dtype=np.int32)
        for feature in range(X.shape[1]):
            edges = _bin_edges(X[:, feature], max_bins)
            self.edges.append(edges)
            # code c satisfies edges[c-1] < x <= edges[c], so the samples
            # with code <= b are exactly those with x <= edges[b].
            self.codes[:, feature] = np.searchsorted(
                edges, X[:, feature], side="left"
            )

    def root_state(self) -> np.ndarray:
        """State covering every training sample."""
        return np.arange(self.X.shape[0])

    def node_stats(self, state: np.ndarray) -> tuple[int, float]:
        """``(n_samples, positive_fraction)`` of the node."""
        positives = self.y01[state].sum()
        return state.size, float(positives / state.size)

    def best_split(
        self, state: np.ndarray, feature_indices: np.ndarray,
        parent_impurity: float,
    ) -> tuple[int, float, float] | None:
        """Best ``(feature, threshold, threshold)`` over candidate features.

        The partition handle is the threshold itself: children are
        recovered by comparing raw feature values against it.
        """
        n_samples = state.size
        y_node = self.y01[state]
        total_positive = y_node.sum()
        best = None
        best_gain = _GAIN_FLOOR
        for feature in feature_indices:
            edges = self.edges[feature]
            if edges.size == 0:
                continue
            codes = self.codes[state, feature]
            n_bins = edges.size + 1
            counts = np.bincount(codes, minlength=n_bins)
            positives = np.bincount(codes, weights=y_node, minlength=n_bins)
            left_count = np.cumsum(counts)[:-1]  # split after bin b
            valid = (left_count >= self.min_samples_leaf) & (
                left_count <= n_samples - self.min_samples_leaf
            )
            if not valid.any():
                continue
            left_positive = np.cumsum(positives)[:-1][valid]
            left_n = left_count[valid].astype(np.float64)
            right_n = n_samples - left_n
            right_positive = total_positive - left_positive
            weighted = (
                left_n * self.impurity_fn(left_positive / left_n)
                + right_n * self.impurity_fn(right_positive / right_n)
            ) / n_samples
            gains = parent_impurity - weighted
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                threshold = float(edges[np.flatnonzero(valid)[best_local]])
                best = (int(feature), threshold, threshold)
        return best

    def partition(
        self, state: np.ndarray, feature: int, threshold: float, handle: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split the node's members on ``x[feature] <= threshold``."""
        goes_left = self.X[state, feature] <= threshold
        return state[goes_left], state[~goes_left]


def make_split_engine(
    splitter: str, X: np.ndarray, y01: np.ndarray,
    impurity_fn, min_samples_leaf: int, max_bins: int,
):
    """Construct the split engine named by ``splitter``."""
    if splitter == "exact":
        return PresortedSplitEngine(
            X, ImpurityCriterion(y01, impurity_fn), min_samples_leaf
        )
    if splitter == "hist":
        return HistogramSplitEngine(
            X, y01, impurity_fn, min_samples_leaf, max_bins
        )
    raise ValidationError(
        f"splitter must be 'exact' or 'hist', got {splitter!r}"
    )
