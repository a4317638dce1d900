"""Boosted decision trees.

Microsoft's "Boosted Decision Tree" (Friedman's stochastic gradient
boosting; Table 1 tunables: max leaves, min instances per leaf, learning
rate, number of trees) and an AdaBoost variant used in ablations.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, sigmoid
from repro.learn.tree.cart import DecisionTreeClassifier, TreeNode
from repro.learn.tree.flat import flatten_tree, stack_trees
from repro.learn.tree.splitter import PresortedSplitEngine, VarianceCriterion
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = ["GradientBoostingClassifier", "AdaBoostClassifier"]


class _RegressionTree:
    """Small CART regression tree fitting residuals for gradient boosting.

    Leaves store the Newton-step value for logistic loss:
    ``sum(residual) / sum(p * (1 - p))``.  Splits come from the presorted
    engine under the variance criterion.  Each node also carries its
    members in row order: the node's residual total and its leaf value
    are pairwise sums, whose last bits depend on the summation order.
    """

    def __init__(self, max_depth: int, min_samples_leaf: int,
                 max_features, rng: np.random.Generator):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng

    def fit(self, X: np.ndarray, residual: np.ndarray, hessian: np.ndarray) -> None:
        engine = PresortedSplitEngine(
            X, VarianceCriterion(residual), self.min_samples_leaf
        )
        self.root = self._grow(
            engine, engine.root_state(), np.arange(X.shape[0]), hessian,
            depth=0,
        )
        # Leaf values live in positive_fraction, so the classification
        # flattener lowers regression trees unchanged.
        self.flat_ = flatten_tree(self.root)

    def _leaf_value(self, residual: np.ndarray, hessian: np.ndarray) -> float:
        denominator = hessian.sum()
        if denominator <= 1e-12:
            return 0.0
        return float(residual.sum() / denominator)

    def _grow(self, engine, state, rows, hessian, depth) -> TreeNode:
        residual = engine.criterion.target[rows]
        node = TreeNode(
            positive_fraction=self._leaf_value(residual, hessian[rows]),
            n_samples=rows.size,
            depth=depth,
        )
        if depth >= self.max_depth or rows.size < 2 * self.min_samples_leaf:
            return node
        split = engine.best_split(
            state, self._candidates(engine.X.shape[1]), residual.sum()
        )
        if split is None:
            return node
        feature, threshold, split_at = split
        left_state, right_state = engine.partition(
            state, feature, threshold, split_at
        )
        goes_left = engine.X[rows, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            engine, left_state, rows[goes_left], hessian, depth + 1
        )
        node.right = self._grow(
            engine, right_state, rows[~goes_left], hessian, depth + 1
        )
        return node

    def _candidates(self, n_features: int) -> np.ndarray:
        """Features examined at one node (drawn per node when subsampling)."""
        if self.max_features is None:
            return np.arange(n_features)
        count = max(1, int(np.sqrt(n_features))) if self.max_features == "sqrt" \
            else min(int(self.max_features), n_features)
        return self.rng.choice(n_features, size=count, replace=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.flat_.predict_value(X)


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Stochastic gradient-boosted trees with logistic loss.

    Parameters
    ----------
    n_estimators : int
        Number of boosting rounds ("# of trees constructed" in Azure).
    learning_rate : float
        Shrinkage applied to each tree's contribution.
    max_depth : int
        Depth of each regression tree (Azure caps leaves; depth d allows
        up to 2^d leaves).
    min_samples_leaf : int
        Azure's "min. # of training instances per leaf".
    subsample : float
        Row subsampling fraction per round (stochastic boosting).
    max_features : None, "sqrt", or int
        Feature subsampling per split.
    random_state : int, Generator, or None
        Seed for subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        max_features=None,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        if self.n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if not 0.0 < self.subsample <= 1.0:
            raise ValidationError("subsample must be in (0, 1]")
        self.classes_ = check_binary_labels(y)
        y01 = (y == self.classes_[1]).astype(np.float64)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        prior = np.clip(y01.mean(), 1e-6, 1.0 - 1e-6)
        self.initial_score_ = float(np.log(prior / (1.0 - prior)))
        raw = np.full(n_samples, self.initial_score_)
        self.trees_: list[_RegressionTree] = []
        for _ in range(self.n_estimators):
            probabilities = 1.0 / (1.0 + np.exp(-raw))
            residual = y01 - probabilities
            hessian = probabilities * (1.0 - probabilities)
            if self.subsample < 1.0:
                size = max(2, int(round(self.subsample * n_samples)))
                rows = rng.choice(n_samples, size=size, replace=False)
            else:
                rows = np.arange(n_samples)
            tree = _RegressionTree(
                self.max_depth, self.min_samples_leaf, self.max_features, rng
            )
            tree.fit(X[rows], residual[rows], hessian[rows])
            raw += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
        # Batched inference over all rounds at once (decision_function).
        self.flat_forest_ = stack_trees([tree.flat_ for tree in self.trees_])
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "trees_")
        raw = np.full(X.shape[0], self.initial_score_)
        # Round-by-round accumulation kept so the sum is bit-identical
        # to the sequential per-tree loop; only the routing is batched.
        for values in self.flat_forest_.predict_values(X):
            raw += self.learning_rate * values
        return raw

    def predict_proba(self, X) -> np.ndarray:
        raw = self.decision_function(X)
        positive = sigmoid(raw)
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        raw = self.decision_function(X)
        return np.where(raw > 0.0, self.classes_[1], self.classes_[0])


class AdaBoostClassifier(BaseEstimator, ClassifierMixin):
    """Discrete AdaBoost over depth-limited CART stumps/trees.

    Used in ablation benches as an alternative boosting formulation.

    Parameters
    ----------
    n_estimators : int
        Boosting rounds.
    max_depth : int
        Depth of each weak learner (1 = decision stumps).
    learning_rate : float
        Shrinkage on each weak learner's vote weight.
    random_state : int, Generator, or None
        Seed for the weighted resampling used to fit weak learners.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 1,
        learning_rate: float = 1.0,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.random_state = random_state

    def fit(self, X, y) -> "AdaBoostClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        if self.n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        self.classes_ = check_binary_labels(y)
        signed = np.where(y == self.classes_[1], 1.0, -1.0)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        weights = np.full(n_samples, 1.0 / n_samples)
        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimator_weights_: list[float] = []
        for _ in range(self.n_estimators):
            # Weak learners see a weighted bootstrap (weighted CART splits
            # would also work; resampling keeps the tree code unweighted).
            rows = rng.choice(n_samples, size=n_samples, replace=True, p=weights)
            if len(np.unique(signed[rows])) < 2:
                rows = np.arange(n_samples)
            stump = DecisionTreeClassifier(
                max_depth=self.max_depth,
                random_state=int(rng.integers(0, 2**31)),
            )
            stump.fit(X[rows], signed[rows])
            predictions = np.asarray(stump.predict(X), dtype=np.float64)
            incorrect = predictions != signed
            error = float(np.sum(weights * incorrect))
            error = np.clip(error, 1e-10, 1.0 - 1e-10)
            alpha = self.learning_rate * 0.5 * np.log((1.0 - error) / error)
            if alpha <= 0.0:
                if not self.estimators_:
                    self.estimators_.append(stump)
                    self.estimator_weights_.append(1.0)
                break
            weights *= np.exp(alpha * incorrect)
            weights /= weights.sum()
            self.estimators_.append(stump)
            self.estimator_weights_.append(float(alpha))
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "estimators_")
        total = np.zeros(X.shape[0])
        for alpha, stump in zip(self.estimator_weights_, self.estimators_):
            total += alpha * np.asarray(stump.predict(X), dtype=np.float64)
        return total

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores > 0.0, self.classes_[1], self.classes_[0])

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        positive = 1.0 / (1.0 + np.exp(-2.0 * np.clip(scores, -250, 250)))
        return np.column_stack([1.0 - positive, positive])
