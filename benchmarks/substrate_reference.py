"""Seed-era tree substrate, kept verbatim as the benchmark baseline.

These classes re-implement the pre-optimization algorithms — re-sorting
every candidate feature at every node during growth, and per-tree
``TreeNode`` stack routing during prediction — on top of the *current*
estimator classes, so ``bench_substrate_speedup.py`` and the
equivalence tests can measure and assert the optimized substrate
against the exact seed behavior.  RNG consumption and arithmetic are
identical, which is what makes "bit-identical predictions" a testable
claim rather than a tolerance check.

The seed split searches live here and nowhere in ``src/``:
``find_best_split``/``scan_sorted_feature`` (CART and the decision
jungle) and the variance searches of gradient boosting's regression
trees and ``DecisionTreeRegressor``.

Not collected by pytest (no ``test_``/``bench_`` prefix); imported by
the bench and by ``tests/learn/test_substrate_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.learn.ensemble import GradientBoostingClassifier, RandomForestClassifier
from repro.learn.ensemble.boosting import _RegressionTree
from repro.learn.regression import DecisionTreeRegressor
from repro.learn.tree import DecisionJungleClassifier, DecisionTreeClassifier
from repro.learn.tree.cart import TreeNode
from repro.learn.tree.flat import flatten_tree, stack_trees
from repro.learn.tree.jungle import _DecisionDAG
from repro.learn.validation import check_array

__all__ = [
    "ReferenceDecisionTree",
    "ReferenceRandomForest",
    "ReferenceGradientBoosting",
    "ReferenceDecisionJungle",
    "ReferenceDecisionTreeRegressor",
    "find_best_split",
    "node_route",
    "reference_grid_search",
    "scan_sorted_feature",
]


def scan_sorted_feature(
    sorted_values: np.ndarray,
    sorted_y: np.ndarray,
    impurity_fn,
    min_samples_leaf: int,
    parent_impurity: float,
    best_gain: float,
) -> tuple[float, float, int] | None:
    """Best threshold of one presorted feature, if it beats ``best_gain``.

    ``sorted_values`` / ``sorted_y`` are the node's feature values and
    0/1 labels in ascending feature order.  Returns ``(gain, threshold,
    split_at)`` — ``split_at`` is the left-child size in sorted order —
    or ``None`` when no candidate position improves on ``best_gain``.
    """
    n_samples = sorted_y.shape[0]
    # Candidate split positions: between distinct consecutive values.
    distinct = sorted_values[1:] != sorted_values[:-1]
    if not distinct.any():
        return None
    positions = np.flatnonzero(distinct) + 1  # left side sizes
    if min_samples_leaf > 1:
        positions = positions[
            (positions >= min_samples_leaf)
            & (positions <= n_samples - min_samples_leaf)
        ]
        if positions.size == 0:
            return None
    cum_pos = np.cumsum(sorted_y)
    left_count = positions.astype(np.float64)
    right_count = n_samples - left_count
    left_positive = cum_pos[positions - 1]
    right_positive = cum_pos[-1] - left_positive
    left_impurity = impurity_fn(left_positive / left_count)
    right_impurity = impurity_fn(right_positive / right_count)
    weighted = (
        left_count * left_impurity + right_count * right_impurity
    ) / n_samples
    gains = parent_impurity - weighted
    best_local = int(np.argmax(gains))
    if not gains[best_local] > best_gain:
        return None
    split_at = int(positions[best_local])
    threshold = 0.5 * (sorted_values[split_at - 1] + sorted_values[split_at])
    # Guard against midpoints rounding onto the right value.
    if threshold >= sorted_values[split_at]:
        threshold = sorted_values[split_at - 1]
    return float(gains[best_local]), float(threshold), split_at


def find_best_split(
    X: np.ndarray,
    y01: np.ndarray,
    feature_indices: np.ndarray,
    impurity_fn,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Find the (feature, threshold) with the largest impurity decrease.

    Returns ``(feature, threshold, gain)`` or ``None`` when no valid split
    exists.  ``y01`` must be 0/1 floats.  This is the exact-mode search:
    every distinct value boundary is a candidate threshold.
    """
    parent_impurity = float(impurity_fn(y01.mean()))
    if parent_impurity == 0.0:
        return None
    best = None
    # Zero-gain splits are accepted (classic CART grows to purity; XOR is
    # unlearnable otherwise) — recursion still terminates because children
    # are strictly smaller.
    best_gain = -1e-12
    for feature in feature_indices:
        values = X[:, feature]
        order = np.argsort(values, kind="stable")
        found = scan_sorted_feature(
            values[order], y01[order], impurity_fn, min_samples_leaf,
            parent_impurity, best_gain,
        )
        if found is not None:
            best_gain, threshold, _ = found
            best = (int(feature), threshold, best_gain)
    return best


def node_route(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Seed prediction path: route samples with a TreeNode stack."""
    values = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, indices = stack.pop()
        if indices.size == 0:
            continue
        if node.is_leaf:
            values[indices] = node.positive_fraction
            continue
        goes_left = X[indices, node.feature] <= node.threshold
        stack.append((node.left, indices[goes_left]))
        stack.append((node.right, indices[~goes_left]))
    return values


class ReferenceDecisionTree(DecisionTreeClassifier):
    """Seed CART: per-node re-sorting growth, per-node stack prediction."""

    def _build_tree(self, X, y01, rng, impurity_fn, n_candidate_features):
        """Seed grower: recursion over copied subarrays, re-sorted splits."""
        return self._seed_grow(
            X, y01, 0, rng, impurity_fn, n_candidate_features
        )

    def _seed_grow(self, X, y01, depth, rng, impurity_fn,
                   n_candidate_features):
        node = TreeNode(
            positive_fraction=float(y01.mean()),
            n_samples=y01.shape[0],
            depth=depth,
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y01.shape[0] < self.min_samples_split
            or node.positive_fraction in (0.0, 1.0)
        ):
            return node
        if n_candidate_features < X.shape[1]:
            feature_indices = rng.choice(
                X.shape[1], size=n_candidate_features, replace=False
            )
        else:
            feature_indices = np.arange(X.shape[1])
        split = find_best_split(
            X, y01, feature_indices, impurity_fn, self.min_samples_leaf
        )
        if split is None:
            return node
        feature, threshold, _ = split
        goes_left = X[:, feature] <= threshold
        if not goes_left.any() or goes_left.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._seed_grow(
            X[goes_left], y01[goes_left], depth + 1, rng, impurity_fn,
            n_candidate_features,
        )
        node.right = self._seed_grow(
            X[~goes_left], y01[~goes_left], depth + 1, rng, impurity_fn,
            n_candidate_features,
        )
        return node

    def _positive_fractions(self, X):
        """Seed prediction: TreeNode stack routing, one tree at a time."""
        return node_route(self.tree_, X)


class ReferenceRandomForest(RandomForestClassifier):
    """Seed forest: reference trees, per-tree Python-loop prediction."""

    def fit(self, X, y):
        """Grow reference trees with the seed's exact RNG consumption."""
        from repro.learn.validation import (
            check_binary_labels, check_random_state, check_X_y,
        )

        X, y = check_X_y(X, y, min_samples=2)
        self.classes_ = check_binary_labels(y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        self.estimators_ = []
        for _ in range(self.n_estimators):
            tree = ReferenceDecisionTree(
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
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X):
        """Seed prediction: list comprehension over per-tree routing."""
        from repro.learn.validation import check_array

        X = check_array(X)
        positive = np.mean(
            [tree.predict_proba(X)[:, 1] for tree in self.estimators_], axis=0
        )
        return np.column_stack([1.0 - positive, positive])


class _ReferenceRegressionTree(_RegressionTree):
    """Seed boosting tree: recursion over copied subarrays, re-sorted splits."""

    def fit(self, X, residual, hessian):
        self.root = self._seed_grow(X, residual, hessian, depth=0)
        self.flat_ = flatten_tree(self.root)

    def _seed_grow(self, X, residual, hessian, depth) -> TreeNode:
        node = TreeNode(
            positive_fraction=self._leaf_value(residual, hessian),
            n_samples=X.shape[0],
            depth=depth,
        )
        if depth >= self.max_depth or X.shape[0] < 2 * self.min_samples_leaf:
            return node
        split = self._best_variance_split(X, residual)
        if split is None:
            return node
        feature, threshold = split
        goes_left = X[:, feature] <= threshold
        if not goes_left.any() or goes_left.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._seed_grow(
            X[goes_left], residual[goes_left], hessian[goes_left], depth + 1
        )
        node.right = self._seed_grow(
            X[~goes_left], residual[~goes_left], hessian[~goes_left], depth + 1
        )
        return node

    def _best_variance_split(self, X, residual):
        """Variance-reduction split search, vectorized per feature."""
        n_samples, n_features = X.shape
        if self.max_features is None:
            candidates = np.arange(n_features)
        else:
            count = max(1, int(np.sqrt(n_features))) if self.max_features == "sqrt" \
                else min(int(self.max_features), n_features)
            candidates = self.rng.choice(n_features, size=count, replace=False)
        best = None
        best_score = -np.inf
        total_sum = residual.sum()
        for feature in candidates:
            order = np.argsort(X[:, feature], kind="stable")
            sorted_values = X[order, feature]
            sorted_residual = residual[order]
            distinct = sorted_values[1:] != sorted_values[:-1]
            if not distinct.any():
                continue
            positions = np.flatnonzero(distinct) + 1
            positions = positions[
                (positions >= self.min_samples_leaf)
                & (positions <= n_samples - self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            cumulative = np.cumsum(sorted_residual)
            left_sum = cumulative[positions - 1]
            right_sum = total_sum - left_sum
            left_n = positions.astype(np.float64)
            right_n = n_samples - left_n
            # Maximizing sum^2/n on both sides == minimizing squared error.
            scores = left_sum**2 / left_n + right_sum**2 / right_n
            local_best = int(np.argmax(scores))
            if scores[local_best] > best_score:
                split_at = positions[local_best]
                threshold = 0.5 * (sorted_values[split_at - 1] + sorted_values[split_at])
                if threshold >= sorted_values[split_at]:
                    threshold = sorted_values[split_at - 1]
                best_score = float(scores[local_best])
                best = (int(feature), float(threshold))
        return best


class ReferenceGradientBoosting(GradientBoostingClassifier):
    """Seed gradient boosting: reference trees, same RNG consumption."""

    def fit(self, X, y):
        """The seed boosting loop over :class:`_ReferenceRegressionTree`."""
        from repro.learn.validation import (
            check_binary_labels, check_random_state, check_X_y,
        )

        X, y = check_X_y(X, y, min_samples=2)
        self.classes_ = check_binary_labels(y)
        y01 = (y == self.classes_[1]).astype(np.float64)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        prior = np.clip(y01.mean(), 1e-6, 1.0 - 1e-6)
        self.initial_score_ = float(np.log(prior / (1.0 - prior)))
        raw = np.full(n_samples, self.initial_score_)
        self.trees_ = []
        for _ in range(self.n_estimators):
            probabilities = 1.0 / (1.0 + np.exp(-raw))
            residual = y01 - probabilities
            hessian = probabilities * (1.0 - probabilities)
            if self.subsample < 1.0:
                size = max(2, int(round(self.subsample * n_samples)))
                rows = rng.choice(n_samples, size=size, replace=False)
            else:
                rows = np.arange(n_samples)
            tree = _ReferenceRegressionTree(
                self.max_depth, self.min_samples_leaf, self.max_features, rng
            )
            tree.fit(X[rows], residual[rows], hessian[rows])
            raw += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
        self.flat_forest_ = stack_trees([tree.flat_ for tree in self.trees_])
        self.n_features_in_ = X.shape[1]
        return self


class _ReferenceDecisionDAG(_DecisionDAG):
    """Seed DAG: every level node re-sorts its members per feature."""

    def _propose_split(self, engine, members, positive_fraction):
        X, y01 = engine.X, engine.criterion.target
        return find_best_split(
            X[members], y01[members],
            np.arange(X.shape[1]), self.impurity_fn,
            min_samples_leaf=1,
        )


class ReferenceDecisionJungle(DecisionJungleClassifier):
    """Seed jungle: reference DAGs, same RNG consumption."""

    def fit(self, X, y):
        """The seed ensemble loop over :class:`_ReferenceDecisionDAG`."""
        from repro.learn.validation import (
            check_binary_labels, check_random_state, check_X_y,
        )

        X, y = check_X_y(X, y, min_samples=2)
        self.classes_ = check_binary_labels(y)
        y01 = (y == self.classes_[1]).astype(np.float64)
        rng = check_random_state(self.random_state)
        self.dags_ = []
        n_samples = X.shape[0]
        for _ in range(self.n_dags):
            if self.bootstrap:
                sample = rng.integers(0, n_samples, size=n_samples)
            else:
                sample = rng.permutation(n_samples)
            dag = _ReferenceDecisionDAG(
                self.max_depth, self.max_width, self.merge_rounds,
                criterion="gini", rng=rng,
            )
            dag.fit(X[sample], y01[sample])
            self.dags_.append(dag)
        self.n_features_in_ = X.shape[1]
        return self


class ReferenceDecisionTreeRegressor(DecisionTreeRegressor):
    """Seed regression tree: re-sorted splits, TreeNode stack prediction."""

    def _build_tree(self, X, y):
        return self._seed_grow(X, y, depth=0)

    def predict(self, X):
        """Seed prediction: TreeNode stack routing."""
        return node_route(self.tree_, check_array(X))

    def _seed_grow(self, X, y, depth):
        node = TreeNode(
            positive_fraction=float(y.mean()),  # reused as the leaf value
            n_samples=y.shape[0],
            depth=depth,
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.shape[0] < 2 * self.min_samples_leaf
            or np.all(y == y[0])
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        goes_left = X[:, feature] <= threshold
        if not goes_left.any() or goes_left.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._seed_grow(X[goes_left], y[goes_left], depth + 1)
        node.right = self._seed_grow(X[~goes_left], y[~goes_left], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n_samples = X.shape[0]
        total_sum = y.sum()
        best = None
        best_score = -np.inf
        for feature in self._candidate_features(X.shape[1]):
            order = np.argsort(X[:, feature], kind="stable")
            sorted_values = X[order, feature]
            sorted_y = y[order]
            distinct = sorted_values[1:] != sorted_values[:-1]
            if not distinct.any():
                continue
            positions = np.flatnonzero(distinct) + 1
            positions = positions[
                (positions >= self.min_samples_leaf)
                & (positions <= n_samples - self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            cumulative = np.cumsum(sorted_y)
            left_sum = cumulative[positions - 1]
            right_sum = total_sum - left_sum
            left_n = positions.astype(np.float64)
            right_n = n_samples - left_n
            scores = left_sum**2 / left_n + right_sum**2 / right_n
            local = int(np.argmax(scores))
            if scores[local] > best_score:
                split_at = positions[local]
                threshold = 0.5 * (sorted_values[split_at - 1] + sorted_values[split_at])
                if threshold >= sorted_values[split_at]:
                    threshold = sorted_values[split_at - 1]
                best_score = float(scores[local])
                best = (int(feature), float(threshold))
        return best


def reference_grid_search(estimator, param_grid, X, y, cv, random_state,
                          scoring):
    """Seed grid search: folds regenerated per candidate, no memoization.

    Returns ``(cv_results, best_params, best_score)`` with the seed's
    exact control flow.
    """
    from repro.exceptions import ReproError
    from repro.learn.base import clone
    from repro.learn.model_selection import ParameterGrid, StratifiedKFold

    results = []
    best_score = -np.inf
    best_params = {}
    for params in ParameterGrid(param_grid):
        candidate = clone(estimator).set_params(**params)
        try:
            splitter = StratifiedKFold(
                n_splits=cv, shuffle=True, random_state=random_state
            )
            scores = []
            for train, test in splitter.split(X, y):
                if len(np.unique(y[train])) < 2:
                    continue
                model = clone(candidate)
                model.fit(X[train], y[train])
                scores.append(scoring(y[test], model.predict(X[test])))
            mean_score = float(np.asarray(scores).mean())
        except ReproError:
            continue
        results.append({"params": params, "mean_score": mean_score})
        if mean_score > best_score:
            best_score = mean_score
            best_params = params
    return results, best_params, best_score
