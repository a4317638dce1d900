"""Equivalence of the perf-driven vectorizations with the seed code.

The perf analyzer flagged Python-level axis loops in the filter scorers and
the fold assembly of ``StratifiedKFold``; their vectorized replacements
are pure wall-clock optimizations, so every test here asserts
**bit-for-bit** equality against the seed implementations kept verbatim
in ``benchmarks/perf_reference.py`` — not tolerance-based closeness.
The platform tests pin down the FitCache routing the P304 findings
introduced: exact hit/miss counts and unchanged predictions.
"""

import numpy as np
import pytest

from benchmarks.perf_reference import (
    ReferenceStratifiedKFold,
    reference_mutual_info_score,
)
from repro.learn.feature_selection.filters import mutual_info_score
from repro.learn.model_selection import StratifiedKFold
from repro.platforms import LocalLibrary, Microsoft


def make_problem(seed, n_samples=200, n_features=6, cardinality=None):
    rng = np.random.default_rng(seed)
    if cardinality is None:
        X = rng.normal(size=(n_samples, n_features))
    else:
        X = rng.integers(0, cardinality,
                         size=(n_samples, n_features)).astype(float)
    y = (X[:, 0] + 0.5 * X[:, 1] > X[:, 0].mean()).astype(int)
    if len(np.unique(y)) < 2:  # pragma: no cover - defensive
        y[0] = 1 - y[0]
    return X, y


class TestMutualInfoEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_on_continuous_data(self, seed):
        X, y = make_problem(seed)
        assert np.array_equal(mutual_info_score(X, y),
                              reference_mutual_info_score(X, y))

    @pytest.mark.parametrize("cardinality", [2, 5])
    def test_bit_identical_on_discrete_data(self, cardinality):
        X, y = make_problem(7, cardinality=cardinality)
        assert np.array_equal(mutual_info_score(X, y),
                              reference_mutual_info_score(X, y))

    def test_constant_columns_and_skewed_classes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 4))
        X[:, 1] = 2.5  # constant column scores exactly 0.0
        y = np.zeros(120, dtype=int)
        y[:10] = 1  # 11:1 class skew
        fast = mutual_info_score(X, y)
        assert np.array_equal(fast, reference_mutual_info_score(X, y))
        assert fast[1] == 0.0

    def test_custom_bin_count(self):
        X, y = make_problem(5)
        assert np.array_equal(
            mutual_info_score(X, y, n_bins=4),
            reference_mutual_info_score(X, y, n_bins=4),
        )


class TestStratifiedKFoldEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_splits", [2, 3, 5])
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_bit_identical_folds(self, seed, n_splits, shuffle):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=97)  # uneven folds and classes
        X = rng.normal(size=(97, 3))
        fast = list(StratifiedKFold(
            n_splits=n_splits, shuffle=shuffle, random_state=seed,
        ).split(X, y))
        ref = list(ReferenceStratifiedKFold(
            n_splits=n_splits, shuffle=shuffle, random_state=seed,
        ).split(X, y))
        assert len(fast) == len(ref)
        for (fast_train, fast_test), (ref_train, ref_test) in zip(fast, ref):
            assert fast_train.dtype == ref_train.dtype
            assert np.array_equal(fast_train, ref_train)
            assert np.array_equal(fast_test, ref_test)

    def test_tiny_minority_class(self):
        y = np.zeros(40, dtype=int)
        y[:3] = 1  # fewer minority members than folds
        X = np.arange(80, dtype=float).reshape(40, 2)
        fast = list(StratifiedKFold(n_splits=5, random_state=0).split(X, y))
        ref = list(ReferenceStratifiedKFold(
            n_splits=5, random_state=0).split(X, y))
        for (fast_train, fast_test), (ref_train, ref_test) in zip(fast, ref):
            assert np.array_equal(fast_train, ref_train)
            assert np.array_equal(fast_test, ref_test)


class TestPlatformFitCacheRouting:
    """The P304 fix: FEAT steps are memoized across a platform's models."""

    def _platform_data(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] > 0).astype(int)
        return X, y

    def test_microsoft_feature_step_hits_cache_on_second_model(self):
        X, y = self._platform_data()
        platform = Microsoft(random_state=0)
        dataset_id = platform.upload_dataset(X, y)
        platform.create_model(
            dataset_id, classifier="SVM", params={"n_iterations": 5},
            feature_selection="filter_count",
        )
        assert (platform._fit_cache.hits,
                platform._fit_cache.misses) == (0, 1)
        platform.create_model(
            dataset_id, classifier="SVM", params={"n_iterations": 25},
            feature_selection="filter_count",
        )
        # Same step, same data: the second FEAT fit is a pure repeat.
        assert (platform._fit_cache.hits,
                platform._fit_cache.misses) == (1, 1)
        platform.create_model(
            dataset_id, classifier="SVM", params={"n_iterations": 5},
            feature_selection="filter_pearson",
        )
        # A different selector is new content: a miss, not a hit.
        assert (platform._fit_cache.hits,
                platform._fit_cache.misses) == (1, 2)

    def test_cached_predictions_match_a_cold_platform(self):
        X, y = self._platform_data(3)
        X_new = np.random.default_rng(4).normal(size=(20, 5))

        warm = Microsoft(random_state=0)
        dataset_id = warm.upload_dataset(X, y)
        warm.create_model(
            dataset_id, classifier="SVM", params={"n_iterations": 5},
            feature_selection="filter_count",
        )
        second = warm.create_model(
            dataset_id, classifier="SVM", params={"n_iterations": 25},
            feature_selection="filter_count",
        )
        assert warm._fit_cache.hits == 1  # the run under test was cached

        cold = Microsoft(random_state=0)
        cold_dataset = cold.upload_dataset(X, y)
        cold_model = cold.create_model(
            cold_dataset, classifier="SVM", params={"n_iterations": 25},
            feature_selection="filter_count",
        )
        assert np.array_equal(warm.batch_predict(second, X_new),
                              cold.batch_predict(cold_model, X_new))

    def test_local_platform_shares_the_cache_too(self):
        X, y = self._platform_data(5)
        platform = LocalLibrary(random_state=0)
        dataset_id = platform.upload_dataset(X, y)
        for C in (0.5, 2.0):
            platform.create_model(
                dataset_id, classifier="LR", params={"C": C},
                feature_selection="standard_scaler",
            )
        assert (platform._fit_cache.hits,
                platform._fit_cache.misses) == (1, 1)

    def test_deleting_the_last_dataset_resets_the_cache(self):
        X, y = self._platform_data(6)
        platform = Microsoft(random_state=0)
        dataset_id = platform.upload_dataset(X, y)
        platform.create_model(dataset_id, classifier="SVM",
                              feature_selection="filter_count")
        assert len(platform._fit_cache) == 1
        platform.delete_dataset(dataset_id)
        assert len(platform._fit_cache) == 0    # entries are dropped...
        assert platform._fit_cache.misses == 1  # ...counters span the run

    def test_shared_cache_is_not_cleared_by_platform(self):
        from repro.learn import FitCache

        X, y = self._platform_data(7)
        shared = FitCache()
        platform = Microsoft(random_state=0, fit_cache=shared)
        dataset_id = platform.upload_dataset(X, y)
        platform.create_model(dataset_id, classifier="SVM",
                              feature_selection="filter_count")
        assert len(shared) == 1
        platform.delete_dataset(dataset_id)
        # An externally-owned cache (one campaign shard sharing it across
        # platforms) must survive any one platform's dataset lifecycle.
        assert len(shared) == 1
