"""Dataset splitting, cross-validation, and grid search.

Implements the experimental protocol of §3: a stratified 70/30
train/test split per dataset, and exhaustive grid search over parameter
grids (``D/100, D, 100*D`` around each numeric default; all options for
categorical parameters).
"""

from __future__ import annotations

import itertools
import numbers
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.learn.base import BaseEstimator, check_is_fitted, clone
from repro.learn.cache import FitCache, derive_candidate_seed, params_token
from repro.learn.metrics import f_score
from repro.learn.validation import (
    DEFAULT_SEED,
    UNSEEDED,
    check_random_state,
    check_X_y,
)

__all__ = [
    "train_test_split",
    "KFold",
    "StratifiedKFold",
    "cross_val_score",
    "ParameterGrid",
    "GridSearchCV",
    "paper_numeric_scan",
]


def train_test_split(
    X,
    y,
    test_size: float = 0.3,
    random_state=None,
    stratify: bool = True,
):
    """Split ``(X, y)`` into train and test partitions.

    Defaults to the paper's 70/30 split.  Stratification keeps the class
    ratio similar in both partitions and guarantees each partition sees
    both classes whenever that is possible.
    """
    X, y = check_X_y(X, y, min_samples=2)
    if not 0.0 < test_size < 1.0:
        raise ValidationError(f"test_size must be in (0, 1), got {test_size}")
    rng = check_random_state(random_state)
    n_samples = X.shape[0]
    n_test = max(1, int(round(test_size * n_samples)))
    if n_test >= n_samples:
        n_test = n_samples - 1
    if stratify:
        test_indices = []
        classes = np.unique(y)
        for c in classes:
            members = np.flatnonzero(y == c)
            members = members[rng.permutation(members.size)]
            share = int(round(n_test * members.size / n_samples))
            share = min(max(share, 1 if members.size > 1 else 0), members.size - 1) \
                if members.size > 1 else 0
            test_indices.extend(members[:share].tolist())
        test_indices = np.array(sorted(test_indices), dtype=np.intp)
    else:
        order = rng.permutation(n_samples)
        test_indices = np.sort(order[:n_test])
    test_mask = np.zeros(n_samples, dtype=bool)
    test_mask[test_indices] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


class KFold:
    """Plain k-fold splitter."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state=None):
        if n_splits < 2:
            raise ValidationError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n_samples = np.asarray(X).shape[0]
        if n_samples < self.n_splits:
            raise ValidationError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = check_random_state(self.random_state)
            indices = rng.permutation(n_samples)
        folds = np.array_split(indices, self.n_splits)
        for k in range(self.n_splits):
            test = np.sort(folds[k])
            train = np.sort(np.concatenate([folds[j] for j in range(self.n_splits) if j != k]))
            yield train, test


class StratifiedKFold:
    """K-fold splitter preserving per-class proportions in each fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state=None):
        if n_splits < 2:
            raise ValidationError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y)
        rng = check_random_state(self.random_state)
        per_fold: list[list[np.ndarray]] = [[] for _ in range(self.n_splits)]
        for c in np.unique(y):
            members = np.flatnonzero(y == c)
            if self.shuffle:
                members = members[rng.permutation(members.size)]
            # Round-robin assignment position % n_splits == k is exactly
            # the strided slice members[k::n_splits]: same fold members
            # as the former per-sample Python loop, k slices per class.
            for k in range(self.n_splits):
                per_fold[k].append(members[k :: self.n_splits])
        chunks = [
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
            for parts in per_fold
        ]
        for k in range(self.n_splits):
            test = np.sort(chunks[k])
            train = np.sort(np.concatenate(
                [chunks[j] for j in range(self.n_splits) if j != k]
            ))
            yield train, test


def cross_val_score(
    estimator: BaseEstimator,
    X,
    y,
    cv: int = 5,
    scoring: Callable = f_score,
    random_state=None,
    folds: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Stratified cross-validated scores of a cloned estimator.

    ``folds`` accepts precomputed ``(train, test)`` index pairs; grid
    search passes the same fold set to every candidate so the splitter
    runs once per fit instead of once per candidate.  When omitted, a
    :class:`StratifiedKFold` seeded by ``random_state`` generates them.
    """
    X, y = check_X_y(X, y)
    if folds is None:
        splitter = StratifiedKFold(
            n_splits=cv, shuffle=True, random_state=random_state
        )
        folds = splitter.split(X, y)
    scores = []
    # repro: disable=P304 -- each fold's fit sees distinct train rows, so the content-keyed cache could never hit; pipeline stages are memoized via the memory GridSearchCV injects
    for train, test in folds:
        if len(np.unique(y[train])) < 2:
            continue
        model = clone(estimator)
        model.fit(X[train], y[train])
        scores.append(scoring(y[test], model.predict(X[test])))
    if not scores:
        raise ValidationError("no valid folds; dataset too small or degenerate")
    return np.asarray(scores)


class ParameterGrid:
    """Iterate over the Cartesian product of a parameter grid.

    A grid maps parameter names to lists of candidate values; iteration
    yields plain dicts in a deterministic order.  A list of grids yields
    their concatenation (used when some parameter combinations are only
    valid together, e.g. penalty='l1' needing solver='sgd').
    """

    def __init__(self, grid: Mapping[str, Sequence] | Sequence[Mapping[str, Sequence]]):
        if isinstance(grid, Mapping):
            grid = [grid]
        self.grids = [dict(g) for g in grid]
        for g in self.grids:
            for name, values in g.items():
                if not isinstance(values, (list, tuple, np.ndarray)):
                    raise ValidationError(
                        f"grid values for {name!r} must be a sequence, "
                        f"got {type(values).__name__}"
                    )

    def __iter__(self) -> Iterator[dict]:
        for g in self.grids:
            if not g:
                yield {}
                continue
            names = sorted(g)
            for combo in itertools.product(*(g[name] for name in names)):
                yield dict(zip(names, combo))

    def __len__(self) -> int:
        total = 0
        for g in self.grids:
            size = 1
            for values in g.values():
                size *= len(values)
            total += size
        return total


def paper_numeric_scan(default: float) -> list[float]:
    """The paper's numeric parameter scan: ``D/100, D, 100*D`` (§3.2)."""
    return [default / 100.0, default, default * 100.0]


def _nested_estimators(value) -> Iterator[BaseEstimator]:
    """Yield every BaseEstimator reachable inside a parameter value."""
    if isinstance(value, BaseEstimator):
        yield value
        for sub in value.get_params().values():
            yield from _nested_estimators(sub)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nested_estimators(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _nested_estimators(item)


def _inject_fit_cache(estimator: BaseEstimator, cache: FitCache) -> None:
    """Point every cache-capable nested estimator at the shared cache."""
    for sub in _nested_estimators(estimator):
        if "memory" in sub._param_names() and sub.memory is None:
            sub.set_params(memory=cache)


def _evaluate_candidate(
    candidate: BaseEstimator, X, y, folds, scoring, cache,
) -> float | None:
    """Mean CV score of one prepared candidate, or None if it failed.

    A candidate whose parameters are invalid for this dataset (e.g.
    ``k > n_samples``) is skipped, as a measurement script would skip a
    failed platform job.
    """
    if cache is not None:
        _inject_fit_cache(candidate, cache)
    try:
        scores = cross_val_score(candidate, X, y, scoring=scoring, folds=folds)
    except ReproError:
        return None
    return float(scores.mean())


#: Per-process fit cache for the parallel grid-search backend; workers
#: memoize shared pipeline stages across the candidates they evaluate.
_WORKER_CACHE: FitCache | None = None


def _init_worker_cache(memoize: bool) -> None:
    """Process-pool initializer: build this worker's fit cache."""
    global _WORKER_CACHE
    _WORKER_CACHE = FitCache() if memoize else None


def _candidate_worker(payload) -> float | None:
    """Evaluate one candidate inside a worker process."""
    candidate, X, y, folds, scoring = payload
    return _evaluate_candidate(candidate, X, y, folds, scoring, _WORKER_CACHE)


class GridSearchCV(BaseEstimator):
    """Exhaustive grid search with cross-validated model selection.

    Fold indices are generated **once per fit** and shared by every
    parameter candidate, candidate evaluation memoizes shared pipeline
    stages through a content-keyed :class:`~repro.learn.cache.FitCache`,
    and ``n_jobs > 1`` fans candidates out over a process pool.  All
    three are pure wall-clock optimizations: scores and the selected
    model are identical to the serial, uncached search, and independent
    of worker count.

    Parameters
    ----------
    estimator : estimator
        Prototype estimator, cloned per candidate.
    param_grid : mapping or list of mappings
        Grid specification (see :class:`ParameterGrid`).
    cv : int
        Stratified folds.
    scoring : callable
        ``scoring(y_true, y_pred) -> float``; larger is better.  Must be
        picklable (a module-level function) when ``n_jobs > 1``.
    random_state : int, Generator, or None
        Seed for fold shuffling and the per-candidate seed derivation.
    n_jobs : int
        Process-pool width for candidate evaluation; ``1`` (default)
        evaluates serially in-process.  Candidates carrying shared-state
        seeds (a numpy ``Generator`` or the ``UNSEEDED`` sentinel, both
        meaningless across process boundaries) are reseeded with
        crc32-derived per-candidate integers — the same derivation as
        :mod:`repro.service` — in *both* the serial and parallel paths,
        so results never depend on worker count.
    memoize : bool
        Enable the shared fit cache for pipeline candidates.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid,
        cv: int = 3,
        scoring: Callable = f_score,
        random_state=None,
        n_jobs: int = 1,
        memoize: bool = True,
    ):
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv = cv
        self.scoring = scoring
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.memoize = memoize

    def _base_seed(self) -> int:
        """Integer root of the per-candidate seed derivation."""
        if isinstance(self.random_state, numbers.Integral):
            return int(self.random_state)
        return DEFAULT_SEED

    def _prepare_candidate(self, params: dict, index: int) -> BaseEstimator:
        """Clone, configure, and deterministically reseed one candidate."""
        candidate = clone(self.estimator).set_params(**params)
        for sub in _nested_estimators(candidate):
            if "random_state" not in sub._param_names():
                continue
            value = sub.random_state
            if isinstance(value, np.random.Generator) or value is UNSEEDED:
                seed = derive_candidate_seed(
                    self._base_seed(), f"grid:{index}:{params_token(params)}"
                )
                sub.set_params(random_state=seed)
        return candidate

    def fit(self, X, y) -> "GridSearchCV":
        X, y = check_X_y(X, y)
        n_jobs = 1 if self.n_jobs is None else int(self.n_jobs)
        if n_jobs < 1:
            raise ValidationError(f"n_jobs must be >= 1, got {self.n_jobs}")
        # Fold indices are a function of (y, cv, random_state) only:
        # compute them once and share them across every candidate.
        splitter = StratifiedKFold(
            n_splits=self.cv, shuffle=True, random_state=self.random_state
        )
        folds = list(splitter.split(X, y))
        grid = list(ParameterGrid(self.param_grid))
        prepared = [
            self._prepare_candidate(params, index)
            for index, params in enumerate(grid)
        ]
        if n_jobs == 1:
            cache = FitCache() if self.memoize else None
            outcomes = [
                _evaluate_candidate(candidate, X, y, folds, self.scoring, cache)
                for candidate in prepared
            ]
        else:
            payloads = [
                (candidate, X, y, folds, self.scoring)
                for candidate in prepared
            ]
            with ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_init_worker_cache,
                initargs=(self.memoize,),
            ) as pool:
                outcomes = list(pool.map(_candidate_worker, payloads))
        results = []
        best_score = -np.inf
        best_params: dict = {}
        best_index = 0
        for index, (params, mean_score) in enumerate(zip(grid, outcomes)):
            if mean_score is None:
                continue
            results.append({"params": params, "mean_score": mean_score})
            if mean_score > best_score:
                best_score = mean_score
                best_params = params
                best_index = index
        if not results:
            raise ValidationError("every grid candidate failed to fit")
        self.cv_results_ = results
        self.best_params_ = best_params
        self.best_score_ = best_score
        self.best_estimator_ = self._prepare_candidate(best_params, best_index)
        self.best_estimator_.fit(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "best_estimator_")
        return self.best_estimator_.predict(X)
