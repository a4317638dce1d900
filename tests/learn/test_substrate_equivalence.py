"""Equivalence of the fast tree substrate with the seed algorithms.

The presorted split engine (under both criteria: CART, gradient
boosting, the decision jungle and the regression tree all grow on it),
compiled flat trees, and the memoizing parallel grid search are pure
wall-clock optimizations: every test here
asserts **bit-for-bit** equality against reference implementations of
the seed algorithms (``benchmarks/substrate_reference.py``), not
tolerance-based closeness.
"""

import numpy as np
import pytest

from benchmarks.substrate_reference import (
    ReferenceDecisionJungle,
    ReferenceDecisionTree,
    ReferenceDecisionTreeRegressor,
    ReferenceGradientBoosting,
    ReferenceRandomForest,
    node_route,
    reference_grid_search,
)
from repro.exceptions import ValidationError
from repro.learn import (
    DecisionJungleClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GridSearchCV,
    Pipeline,
    RandomForestClassifier,
    cross_val_score,
)
from repro.learn.feature_selection import SelectKBest
from repro.learn.metrics import accuracy_score
from repro.learn.model_selection import StratifiedKFold
from repro.learn.validation import UNSEEDED


def make_problem(seed, n_samples=240, n_features=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    y = (X[:, 0] + 0.6 * X[:, 1] - X[:, 2]
         + 0.2 * rng.normal(size=n_samples) > X[:, 0].mean()).astype(int)
    if len(np.unique(y)) < 2:  # pragma: no cover - defensive
        y[0] = 1 - y[0]
    return X, y


class TestPresortedTreeEquivalence:
    @pytest.mark.parametrize("data_seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("max_depth", [2, 5, None])
    def test_bit_identical_default_params(self, data_seed, max_depth):
        X, y = make_problem(data_seed)
        fast = DecisionTreeClassifier(max_depth=max_depth,
                                      random_state=0).fit(X, y)
        seed = ReferenceDecisionTree(max_depth=max_depth,
                                     random_state=0).fit(X, y)
        assert np.array_equal(fast.predict_proba(X), seed.predict_proba(X))
        assert np.array_equal(fast.predict(X), seed.predict(X))

    @pytest.mark.parametrize("max_features", ["sqrt", "log2", 0.5, 3])
    def test_bit_identical_feature_subsampling(self, max_features):
        # rng.choice must be consumed at identical recursion positions.
        X, y = make_problem(7)
        fast = DecisionTreeClassifier(max_depth=6, max_features=max_features,
                                      random_state=11).fit(X, y)
        seed = ReferenceDecisionTree(max_depth=6, max_features=max_features,
                                     random_state=11).fit(X, y)
        assert np.array_equal(fast.predict_proba(X), seed.predict_proba(X))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("min_samples_leaf", [1, 4])
    def test_bit_identical_criteria_and_leaf_floor(self, criterion,
                                                   min_samples_leaf):
        X, y = make_problem(5)
        kwargs = dict(criterion=criterion, min_samples_leaf=min_samples_leaf,
                      max_depth=8, random_state=0)
        fast = DecisionTreeClassifier(**kwargs).fit(X, y)
        seed = ReferenceDecisionTree(**kwargs).fit(X, y)
        assert np.array_equal(fast.predict_proba(X), seed.predict_proba(X))

    def test_identical_tree_structure(self):
        X, y = make_problem(4)
        fast = DecisionTreeClassifier(max_depth=7, random_state=0).fit(X, y)
        seed = ReferenceDecisionTree(max_depth=7, random_state=0).fit(X, y)
        assert fast.n_leaves() == seed.n_leaves()
        assert fast.depth() == seed.depth()
        assert fast.tree_.feature == seed.tree_.feature
        assert fast.tree_.threshold == seed.tree_.threshold

    def test_flat_routing_matches_node_routing(self):
        X, y = make_problem(8)
        X_query = make_problem(9, n_samples=500)[0]
        tree = DecisionTreeClassifier(max_depth=9, random_state=2).fit(X, y)
        flat = tree.flat_tree_.predict_value(X_query)
        walked = node_route(tree.tree_, X_query)
        assert np.array_equal(flat, walked)


def make_tied_problem(seed, n_samples=150):
    """Rounded (heavily tied) features plus one constant column."""
    X, y = make_problem(seed, n_samples=n_samples, n_features=6)
    X = np.round(X, 1)
    X[:, 3] = 2.5
    # Adjacent doubles: some midpoints round onto the right value.
    X[:, 4] = 1.0 + np.finfo(float).eps * np.digitize(X[:, 0], [-0.5, 0.0, 0.5])
    return X, y


class TestGradientBoostingEquivalence:
    # max_features=6 draws a permutation of all six features.
    @pytest.mark.parametrize("max_features", [None, "sqrt", 2, 6])
    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    @pytest.mark.parametrize("min_samples_leaf", [1, 10, 50])
    def test_bit_identical_to_seed(self, max_features, subsample,
                                   min_samples_leaf):
        # Node totals and Newton leaves must be summed in row order, and
        # rng.choice drawn at the seed's preorder positions.
        kwargs = dict(n_estimators=6, max_depth=4, max_features=max_features,
                      subsample=subsample, min_samples_leaf=min_samples_leaf,
                      random_state=3)
        X_query = make_problem(20, n_samples=200, n_features=6)[0]
        for data_seed in (21, 22, 23):
            X, y = make_tied_problem(data_seed)
            fast = GradientBoostingClassifier(**kwargs).fit(X, y)
            seed = ReferenceGradientBoosting(**kwargs).fit(X, y)
            assert (fast.decision_function(X_query).tobytes()
                    == seed.decision_function(X_query).tobytes())
            assert (fast.predict_proba(X_query).tobytes()
                    == seed.predict_proba(X_query).tobytes())
            for tree, seed_tree in zip(fast.trees_, seed.trees_):
                assert tree.root == seed_tree.root

    def test_unsplittable_nodes_stay_leaves(self):
        # Every column constant: no split position exists anywhere.
        X = np.full((40, 3), 1.5)
        y = np.arange(40) % 2
        fast = GradientBoostingClassifier(n_estimators=3,
                                          random_state=0).fit(X, y)
        seed = ReferenceGradientBoosting(n_estimators=3,
                                         random_state=0).fit(X, y)
        for tree, seed_tree in zip(fast.trees_, seed.trees_):
            assert tree.root.is_leaf
            assert tree.root == seed_tree.root
        assert (fast.decision_function(X).tobytes()
                == seed.decision_function(X).tobytes())


class TestDecisionJungleEquivalence:
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_width", [1, 4, 16])
    def test_bit_identical_to_seed(self, bootstrap, max_width):
        # Merged level nodes get their sorted lists by masking the
        # DAG's root order, not by partitioning one parent.
        X, y = make_tied_problem(31)
        kwargs = dict(n_dags=4, max_depth=6, max_width=max_width,
                      bootstrap=bootstrap, random_state=5)
        fast = DecisionJungleClassifier(**kwargs).fit(X, y)
        seed = ReferenceDecisionJungle(**kwargs).fit(X, y)
        X_query = make_problem(32, n_samples=200, n_features=6)[0]
        assert (fast.predict_proba(X_query).tobytes()
                == seed.predict_proba(X_query).tobytes())
        for dag, seed_dag in zip(fast.dags_, seed.dags_):
            assert dag.levels == seed_dag.levels


def threshold_rows(root, template):
    """One copy of ``template`` per split, set exactly on its threshold."""
    rows = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            row = template.copy()
            row[node.feature] = node.threshold
            rows.append(row)
            stack.extend((node.left, node.right))
    return np.array(rows).reshape(-1, template.size)


class TestRegressionTreeEquivalence:
    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    @pytest.mark.parametrize("min_samples_leaf", [1, 5])
    def test_bit_identical_to_seed(self, max_features, min_samples_leaf):
        X, _ = make_tied_problem(41)
        target = X[:, 0] ** 2 - X[:, 1] + np.random.default_rng(41).normal(
            size=X.shape[0]
        )
        kwargs = dict(max_depth=7, max_features=max_features,
                      min_samples_leaf=min_samples_leaf, random_state=2)
        fast = DecisionTreeRegressor(**kwargs).fit(X, target)
        seed = ReferenceDecisionTreeRegressor(**kwargs).fit(X, target)
        # Flat routing against the seed's stack walk, including rows that
        # sit exactly on every split threshold.
        X_query = np.vstack([X, threshold_rows(fast.tree_, X[0])])
        assert fast.predict(X_query).tobytes() == seed.predict(X_query).tobytes()
        assert fast.tree_ == seed.tree_

    def test_constant_columns_predict_the_mean(self):
        X = np.full((30, 3), 2.5)
        target = np.arange(30.0)
        fast = DecisionTreeRegressor().fit(X, target)
        seed = ReferenceDecisionTreeRegressor().fit(X, target)
        assert fast.tree_.is_leaf
        assert fast.predict(X).tobytes() == seed.predict(X).tobytes()


class TestFlatForestEquivalence:
    def test_forest_bit_identical_to_seed(self):
        X, y = make_problem(3, n_samples=300)
        fast = RandomForestClassifier(n_estimators=12, max_depth=6,
                                      random_state=1).fit(X, y)
        seed = ReferenceRandomForest(n_estimators=12, max_depth=6,
                                     random_state=1).fit(X, y)
        X_query = make_problem(10, n_samples=400)[0]
        assert np.array_equal(fast.predict_proba(X_query),
                              seed.predict_proba(X_query))

    def test_stacked_rows_match_per_tree_routing(self):
        X, y = make_problem(6)
        forest = RandomForestClassifier(n_estimators=8, max_depth=5,
                                        random_state=0).fit(X, y)
        stacked = forest.flat_forest_.predict_values(X)
        for row, tree in zip(stacked, forest.estimators_):
            assert np.array_equal(row, tree.flat_tree_.predict_value(X))


class TestGridSearchEquivalence:
    def _pipeline(self):
        return Pipeline([
            ("select", SelectKBest(k=4)),
            ("tree", DecisionTreeClassifier(random_state=0)),
        ])

    _GRID = {"select__k": [3, 6], "tree__max_depth": [3, 6]}

    def test_hoisted_folds_match_seed_grid_loop(self):
        X, y = make_problem(1, n_samples=200)
        search = GridSearchCV(self._pipeline(), self._GRID, cv=3,
                              scoring=accuracy_score, random_state=0)
        search.fit(X, y)
        results, best_params, best_score = reference_grid_search(
            self._pipeline(), self._GRID, X, y, cv=3, random_state=0,
            scoring=accuracy_score,
        )
        assert search.best_params_ == best_params
        assert search.best_score_ == best_score
        assert search.cv_results_ == results

    def test_memoized_search_matches_uncached(self):
        X, y = make_problem(2, n_samples=200)
        cached = GridSearchCV(self._pipeline(), self._GRID, cv=3,
                              random_state=4).fit(X, y)
        uncached = GridSearchCV(self._pipeline(), self._GRID, cv=3,
                                random_state=4, memoize=False).fit(X, y)
        assert cached.cv_results_ == uncached.cv_results_
        assert cached.best_params_ == uncached.best_params_
        assert cached.best_score_ == uncached.best_score_
        assert np.array_equal(cached.predict(X), uncached.predict(X))

    def test_parallel_matches_serial(self):
        X, y = make_problem(3, n_samples=200)
        serial = GridSearchCV(self._pipeline(), self._GRID, cv=3,
                              random_state=6).fit(X, y)
        parallel = GridSearchCV(self._pipeline(), self._GRID, cv=3,
                                random_state=6, n_jobs=2).fit(X, y)
        assert parallel.cv_results_ == serial.cv_results_
        assert parallel.best_params_ == serial.best_params_
        assert parallel.best_score_ == serial.best_score_
        assert np.array_equal(parallel.predict(X), serial.predict(X))

    def test_parallel_matches_serial_with_unseeded_candidates(self):
        # UNSEEDED candidates are reseeded with crc32-derived integers
        # before dispatch, identically in both execution paths, so even
        # "nondeterministic" estimators give worker-count-independent
        # search results.
        X, y = make_problem(4, n_samples=200)
        forest = RandomForestClassifier(n_estimators=5, random_state=UNSEEDED)
        grid = {"max_depth": [3, 5]}
        serial = GridSearchCV(forest, grid, cv=3, random_state=1).fit(X, y)
        parallel = GridSearchCV(forest, grid, cv=3, random_state=1,
                                n_jobs=2).fit(X, y)
        assert parallel.cv_results_ == serial.cv_results_
        assert np.array_equal(parallel.predict(X), serial.predict(X))

    def test_invalid_n_jobs_rejected(self):
        X, y = make_problem(0, n_samples=60)
        with pytest.raises(ValidationError):
            GridSearchCV(DecisionTreeClassifier(), {"max_depth": [2]},
                         n_jobs=0).fit(X, y)


class TestCrossValScoreFolds:
    def test_explicit_folds_match_internal_splitter(self):
        X, y = make_problem(5, n_samples=150)
        splitter = StratifiedKFold(n_splits=3, shuffle=True, random_state=2)
        folds = list(splitter.split(X, y))
        tree = DecisionTreeClassifier(max_depth=4, random_state=0)
        hoisted = cross_val_score(tree, X, y, cv=3, random_state=2,
                                  folds=folds)
        internal = cross_val_score(tree, X, y, cv=3, random_state=2)
        assert np.array_equal(hoisted, internal)
