"""Seed-era hot-path implementations, kept verbatim as bench baselines.

These functions re-implement the pre-vectorization bodies of the
hotspots the perf analyzer flagged (P301 axis loops in the filter scorers,
the per-index fold assembly in ``StratifiedKFold``) so that
``bench_perf_hotspots.py`` and ``tests/learn/test_perf_equivalence.py``
can measure and assert the vectorized versions against the exact seed
behavior.  Arithmetic order and RNG consumption are identical, which is
what makes "bit-identical outputs" a testable claim rather than a
tolerance check.

Not collected by pytest (no ``test_``/``bench_`` prefix); imported by
the bench and the equivalence tests.
"""

from __future__ import annotations

import numpy as np

from repro.learn.validation import check_X_y, check_random_state

__all__ = [
    "ReferenceStratifiedKFold",
    "reference_mutual_info_score",
]


def reference_mutual_info_score(X, y, n_bins: int = 10) -> np.ndarray:
    """Seed MI scorer: Python loop over bins x classes per feature."""
    X, y = check_X_y(X, y)
    y01 = (y == np.unique(y)[-1]).astype(int)
    n_samples = X.shape[0]
    class_prob = np.bincount(y01, minlength=2) / n_samples
    scores = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        column = X[:, j]
        lo, hi = column.min(), column.max()
        if lo == hi:
            continue
        bins = np.linspace(lo, hi, n_bins + 1)
        codes = np.clip(np.digitize(column, bins[1:-1]), 0, n_bins - 1)
        mi = 0.0
        for b in range(n_bins):
            in_bin = codes == b
            p_bin = in_bin.mean()
            if p_bin == 0.0:
                continue
            for c in (0, 1):
                p_joint = np.mean(in_bin & (y01 == c))
                if p_joint > 0.0 and class_prob[c] > 0.0:
                    mi += p_joint * np.log(p_joint / (p_bin * class_prob[c]))
        scores[j] = max(mi, 0.0)
    return scores


class ReferenceStratifiedKFold:
    """Seed splitter: per-index Python list assembly of each fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True,
                 random_state=None):
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y):
        y = np.asarray(y)
        rng = check_random_state(self.random_state)
        per_fold = [[] for _ in range(self.n_splits)]
        for c in np.unique(y):
            members = np.flatnonzero(y == c)
            if self.shuffle:
                members = members[rng.permutation(members.size)]
            for position, index in enumerate(members):
                per_fold[position % self.n_splits].append(int(index))
        for k in range(self.n_splits):
            test = np.array(sorted(per_fold[k]), dtype=int)
            train = np.array(
                sorted(i for j in range(self.n_splits) if j != k
                       for i in per_fold[j]),
                dtype=int,
            )
            yield train, test
