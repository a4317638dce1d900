"""Tests for CART decision trees and Decision Jungles."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learn.tree import (
    DecisionJungleClassifier,
    DecisionTreeClassifier,
    entropy_impurity,
    gini_impurity,
)
from repro.learn.tree.criteria import criterion_function
from repro.learn.tree.splitter import ImpurityCriterion, PresortedSplitEngine


class TestCriteria:
    def test_gini_extremes(self):
        assert gini_impurity(np.array(0.0)) == 0.0
        assert gini_impurity(np.array(1.0)) == 0.0
        assert gini_impurity(np.array(0.5)) == pytest.approx(0.5)

    def test_entropy_extremes(self):
        assert entropy_impurity(np.array(0.0)) == pytest.approx(0.0, abs=1e-9)
        assert entropy_impurity(np.array(0.5)) == pytest.approx(np.log(2))

    def test_both_maximized_at_half(self):
        p = np.linspace(0.01, 0.99, 99)
        for impurity in (gini_impurity, entropy_impurity):
            values = impurity(p)
            assert np.argmax(values) == len(p) // 2

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            criterion_function("misclassification")


def find_best_split(X, y01, feature_indices, impurity_fn, min_samples_leaf):
    """Root split of the presorted engine as ``(feature, threshold, gain)``.

    The engine returns the left-child size; the gain is read back from
    the criterion at that position.
    """
    criterion = ImpurityCriterion(y01, impurity_fn)
    engine = PresortedSplitEngine(X, criterion, min_samples_leaf)
    state = engine.root_state()
    n_node, positive_fraction = engine.node_stats(state)
    parent = float(impurity_fn(positive_fraction))
    split = engine.best_split(state, feature_indices, parent)
    if split is None:
        return None
    feature, threshold, split_at = split
    cumulative = np.cumsum(y01[state[feature]])[None, :]
    left_count = np.arange(1.0, n_node)
    gains = criterion.gains(cumulative, left_count, n_node - left_count,
                            n_node, parent)
    return feature, threshold, float(gains[0, split_at - 1])


class TestFindBestSplit:
    """The presorted engine's split search on hand-checkable nodes."""

    def test_finds_obvious_threshold(self):
        X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y01 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        split = find_best_split(X, y01, np.array([0]), gini_impurity, 1)
        feature, threshold, gain = split
        assert feature == 0
        assert 3.0 <= threshold < 10.0
        assert gain == pytest.approx(0.5)

    def test_pure_node_returns_none(self):
        X = np.array([[1.0], [2.0]])
        assert find_best_split(X, np.array([1.0, 1.0]), np.array([0]), gini_impurity, 1) is None

    def test_constant_feature_returns_none(self):
        X = np.ones((6, 1))
        y01 = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        assert find_best_split(X, y01, np.array([0]), gini_impurity, 1) is None

    def test_min_samples_leaf_restricts_positions(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y01 = np.array([0.0] * 1 + [1.0] * 9)  # best unrestricted split at 0|1
        split = find_best_split(X, y01, np.array([0]), gini_impurity, 3)
        _, threshold, _ = split
        # Both children must keep >= 3 samples.
        left = np.sum(X.ravel() <= threshold)
        assert 3 <= left <= 7


class TestDecisionTree:
    def test_fits_xor_perfectly(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = DecisionTreeClassifier().fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_max_depth_limits_tree(self, circles_data):
        X_train, y_train, _, _ = circles_data
        shallow = DecisionTreeClassifier(max_depth=2).fit(X_train, y_train)
        assert shallow.depth() <= 2
        deep = DecisionTreeClassifier(max_depth=8).fit(X_train, y_train)
        assert deep.depth() > shallow.depth()

    def test_min_samples_leaf_respected(self, circles_data):
        X_train, y_train, _, _ = circles_data
        model = DecisionTreeClassifier(min_samples_leaf=20).fit(X_train, y_train)
        stack = [model.tree_]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.n_samples >= 20 or node.depth == 0
            else:
                stack.extend([node.left, node.right])

    def test_entropy_criterion_works(self, circles_data):
        X_train, y_train, X_test, y_test = circles_data
        model = DecisionTreeClassifier(criterion="entropy").fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_max_features_sqrt_randomizes(self, noisy_linear_data):
        X_train, y_train, X_test, _ = noisy_linear_data
        a = DecisionTreeClassifier(max_features="sqrt", random_state=1).fit(X_train, y_train)
        b = DecisionTreeClassifier(max_features="sqrt", random_state=2).fit(X_train, y_train)
        # Different seeds explore different feature subsets -> different trees.
        assert not np.array_equal(a.predict(X_test), b.predict(X_test)) or a.n_leaves() != b.n_leaves()

    def test_invalid_parameters_rejected(self, linear_data):
        X_train, y_train, _, _ = linear_data
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_depth=0).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_split=1).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_leaf=0).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_features=0).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_features=1.5).fit(X_train, y_train)

    def test_duplicate_points_with_conflicting_labels(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        model = DecisionTreeClassifier().fit(X, y)
        # Must not crash; majority at x=1 is class 0.
        assert model.predict(np.array([[1.0]]))[0] == 0

    def test_probability_equals_leaf_fraction(self):
        X = np.array([[0.0], [0.0], [0.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        proba = model.predict_proba(np.array([[0.0]]))
        assert proba[0, 1] == pytest.approx(1 / 3)

    def test_leaf_count_positive(self, linear_data):
        X_train, y_train, _, _ = linear_data
        model = DecisionTreeClassifier(max_depth=3).fit(X_train, y_train)
        assert 1 <= model.n_leaves() <= 2**3


class TestDecisionJungle:
    def test_learns_nonlinear_concept(self, circles_data):
        X_train, y_train, X_test, y_test = circles_data
        model = DecisionJungleClassifier(
            n_dags=4, max_depth=6, max_width=8, merge_rounds=32, random_state=0
        ).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.8

    def test_width_cap_respected(self, circles_data):
        X_train, y_train, _, _ = circles_data
        model = DecisionJungleClassifier(
            n_dags=1, max_depth=6, max_width=4, merge_rounds=16, random_state=0
        ).fit(X_train, y_train)
        for level in model.dags_[0].levels:
            assert len(level) <= 4

    def test_number_of_dags(self, linear_data):
        X_train, y_train, _, _ = linear_data
        model = DecisionJungleClassifier(n_dags=3, random_state=0).fit(X_train, y_train)
        assert len(model.dags_) == 3

    def test_narrow_jungle_caps_every_level(self, circles_data):
        # The defining property of a jungle: a level never exceeds the
        # width cap, however many splits the previous level proposed.
        X_train, y_train, _, _ = circles_data
        narrow = DecisionJungleClassifier(
            n_dags=2, max_depth=8, max_width=2, merge_rounds=64, random_state=0
        ).fit(X_train, y_train)
        for dag in narrow.dags_:
            assert all(len(level) <= 2 for level in dag.levels[1:])
        # And a narrow jungle has at most as many nodes per level as a
        # wide one at the same depth.
        wide = DecisionJungleClassifier(
            n_dags=2, max_depth=8, max_width=32, merge_rounds=64, random_state=0
        ).fit(X_train, y_train)
        widest_narrow = max(len(l) for dag in narrow.dags_ for l in dag.levels)
        widest_wide = max(len(l) for dag in wide.dags_ for l in dag.levels)
        assert widest_narrow <= widest_wide

    def test_invalid_parameters_rejected(self, linear_data):
        X_train, y_train, _, _ = linear_data
        with pytest.raises(ValidationError):
            DecisionJungleClassifier(n_dags=0).fit(X_train, y_train)
        with pytest.raises(ValidationError):
            DecisionJungleClassifier(max_width=0).fit(X_train, y_train)

    def test_replicate_resampling_supported(self, linear_data):
        X_train, y_train, X_test, y_test = linear_data
        model = DecisionJungleClassifier(
            n_dags=2, bootstrap=False, random_state=0
        ).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.7
