"""Compiled flat trees: fitted node graphs lowered to parallel arrays.

A fitted :class:`~repro.learn.tree.cart.TreeNode` graph is convenient to
grow and introspect but slow to evaluate — every node costs a Python
stack operation per batch.  :func:`flatten_tree` lowers a fitted graph
into five parallel numpy arrays (``feature/threshold/left/right/value``)
and :class:`FlatTree` routes an entire prediction batch level-by-level
with vectorized comparisons, retiring rows as they reach leaves.
:func:`stack_trees` concatenates several flat trees into one
:class:`FlatForest` node pool so a whole ensemble is evaluated by one
compressed routing loop rather than per-tree Python recursion.

Routing uses the same ``x[feature] <= threshold`` comparisons and the
same leaf values as the node graph, so flat predictions are bit-for-bit
identical to walking the ``TreeNode`` structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FlatTree", "FlatForest", "flatten_tree", "stack_trees"]

#: Marks this module for the perf analyzer's P306 rule: the compiled
#: layout promises allocation-free per-row inner loops, and the
#: analyzer holds it to that.
_COMPILED_SUBSTRATE = True  # repro: disable=F104 -- read by the perf analyzer's P306 rule from the AST, not through imports


@dataclass
class FlatTree:
    """One fitted tree as parallel arrays (preorder node layout).

    ``feature[i] == -1`` marks node ``i`` as a leaf holding ``value[i]``
    (a positive-class fraction for classification trees, a leaf score
    for regression trees); internal nodes route ``x[feature[i]] <=
    threshold[i]`` to ``left[i]`` and the rest to ``right[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return self.feature.shape[0]

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Route every row of ``X`` to its leaf value, level by level.

        Rows that reach a leaf are written out and dropped from the
        working set, so each iteration only advances rows still inside
        the tree — total work is ``sum over rows of path length``.
        """
        return _route(self.feature, self.threshold, self.left, self.right,
                      self.value, X, np.zeros(X.shape[0], dtype=np.intp))


def _route(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    X: np.ndarray,
    start_nodes: np.ndarray,
    sample_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Shared compressed routing loop for flat trees and forests.

    Each entry of ``start_nodes`` is an independent routing job starting
    at that node; ``sample_rows`` maps jobs to rows of ``X`` (identity
    when omitted — one job per row).  Finished jobs (those sitting on a
    leaf) are retired from the working arrays every iteration.
    """
    n_jobs = start_nodes.shape[0]
    out = np.empty(n_jobs)
    pending = np.arange(n_jobs)
    nodes = start_nodes
    rows = np.arange(n_jobs) if sample_rows is None else sample_rows
    feat = feature[nodes]
    while True:
        at_leaf = feat < 0
        if at_leaf.any():
            done = np.flatnonzero(at_leaf)
            out[pending[done]] = value[nodes[done]]
            keep = np.flatnonzero(~at_leaf)
            pending = pending[keep]
            nodes = nodes[keep]
            rows = rows[keep]
            feat = feat[keep]
        if pending.size == 0:
            return out
        goes_left = X[rows, feat] <= threshold[nodes]
        nodes = np.where(goes_left, left[nodes], right[nodes])
        feat = feature[nodes]


def flatten_tree(root) -> FlatTree:
    """Lower a fitted ``TreeNode`` graph into a :class:`FlatTree`."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    index = {id(node): position for position, node in enumerate(order)}
    n_nodes = len(order)
    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes)
    left = np.zeros(n_nodes, dtype=np.int32)
    right = np.zeros(n_nodes, dtype=np.int32)
    value = np.empty(n_nodes)
    for position, node in enumerate(order):
        value[position] = node.positive_fraction
        if not node.is_leaf:
            feature[position] = node.feature
            threshold[position] = node.threshold
            left[position] = index[id(node.left)]
            right[position] = index[id(node.right)]
    return FlatTree(feature, threshold, left, right, value)


@dataclass
class FlatForest:
    """Several flat trees concatenated into one node pool.

    ``roots[t]`` is the offset of tree ``t``'s root; child pointers are
    rebased into the pool, so every ``(tree, sample)`` routing job is
    just a starting node in a single shared array set.  The whole
    ensemble is evaluated by one compressed routing loop instead of
    per-tree Python recursion.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        """Number of stacked trees."""
        return self.roots.shape[0]

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_trees, n_samples)``.

        Every ``(tree, sample)`` pair routes concurrently through the
        shared node pool; row ``t`` of the result is bit-identical to
        ``trees[t].predict_value(X)``.
        """
        n_trees = self.roots.shape[0]
        n_samples = X.shape[0]
        start = np.repeat(self.roots, n_samples)
        rows = np.tile(np.arange(n_samples), n_trees)
        flat = _route(self.feature, self.threshold, self.left, self.right,
                      self.value, X, start, rows)
        return flat.reshape(n_trees, n_samples)


def stack_trees(trees: list[FlatTree]) -> FlatForest:
    """Concatenate flat trees into one :class:`FlatForest` node pool."""
    sizes = [tree.n_nodes for tree in trees]
    roots = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([
        tree.left.astype(np.intp) + offset
        for tree, offset in zip(trees, roots)
    ])
    right = np.concatenate([
        tree.right.astype(np.intp) + offset
        for tree, offset in zip(trees, roots)
    ])
    value = np.concatenate([tree.value for tree in trees])
    return FlatForest(feature, threshold, left, right, value, roots)
