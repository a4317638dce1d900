"""Post-hoc statistical comparisons of platforms over multiple datasets.

The paper's ranking methodology follows Dietterich (1998) and Demšar
(2006) with the García & Herrera (2008) extension for all pairwise
comparisons — its references [19], [20], [29].  This module implements
that toolkit on top of the Friedman ranking:

* Wilcoxon signed-rank test for one platform pair over datasets;
* all-pairs comparison with Holm step-down correction;
* the Nemenyi critical difference for average Friedman ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import friedman_ranking
from repro.exceptions import ValidationError

__all__ = [
    "wilcoxon_signed_rank",
    "PairwiseComparison",
    "pairwise_comparisons",
    "nemenyi_critical_difference",
    "significantly_different_pairs",
]


def wilcoxon_signed_rank(
    scores_a, scores_b
) -> tuple[float, float]:
    """Wilcoxon signed-rank test on paired per-dataset scores.

    Returns ``(statistic, p_value)`` for the two-sided test.  Ties
    (zero differences) are dropped, per the classic procedure; if every
    pair ties the result is ``(0.0, 1.0)``.
    """
    from scipy.stats import wilcoxon

    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("paired score arrays must have equal length")
    if a.size < 3:
        raise ValidationError("need at least 3 paired scores")
    differences = a - b
    nonzero = differences[differences != 0.0]
    if nonzero.size == 0:
        return 0.0, 1.0
    result = wilcoxon(nonzero)
    return float(result.statistic), float(result.pvalue)


@dataclass(frozen=True)
class PairwiseComparison:
    """One platform pair's test outcome after multiple-test correction."""

    platform_a: str
    platform_b: str
    statistic: float
    p_value: float
    adjusted_p: float
    significant: bool
    better: str  # which platform has the higher mean score


def pairwise_comparisons(
    scores: dict[str, dict[str, float]],
    alpha: float = 0.05,
) -> list[PairwiseComparison]:
    """All-pairs Wilcoxon tests with Holm step-down correction.

    ``scores`` maps ``{platform: {dataset: score}}``; only datasets
    common to all platforms enter the pairing (complete blocks, as in
    the Friedman procedure).
    """
    platforms = sorted(scores)
    if len(platforms) < 2:
        raise ValidationError("need at least 2 platforms")
    common = sorted(set.intersection(*(set(scores[p]) for p in platforms)))
    if len(common) < 3:
        raise ValidationError("need at least 3 common datasets")

    raw: list[tuple[str, str, float, float, str]] = []
    for i, a in enumerate(platforms):
        for b in platforms[i + 1:]:
            vec_a = np.array([scores[a][d] for d in common])
            vec_b = np.array([scores[b][d] for d in common])
            statistic, p_value = wilcoxon_signed_rank(vec_a, vec_b)
            better = a if vec_a.mean() >= vec_b.mean() else b
            raw.append((a, b, statistic, p_value, better))

    # Holm step-down: sort ascending by p, adjust by remaining tests.
    order = sorted(range(len(raw)), key=lambda i: raw[i][3])
    m = len(raw)
    adjusted = [0.0] * m
    running_max = 0.0
    for rank, index in enumerate(order):
        adjusted_p = min(1.0, (m - rank) * raw[index][3])
        running_max = max(running_max, adjusted_p)  # enforce monotonicity
        adjusted[index] = running_max

    comparisons = []
    for (a, b, statistic, p_value, better), adjusted_p in zip(raw, adjusted):
        comparisons.append(PairwiseComparison(
            platform_a=a,
            platform_b=b,
            statistic=statistic,
            p_value=p_value,
            adjusted_p=adjusted_p,
            significant=adjusted_p < alpha,
            better=better,
        ))
    comparisons.sort(key=lambda c: c.adjusted_p)
    return comparisons


# Upper 5% studentized-range quantiles / sqrt(2) for the Nemenyi test,
# indexed by the number of compared classifiers k (Demšar 2006, Table 5).
_NEMENYI_Q05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
    7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}


def nemenyi_critical_difference(n_platforms: int, n_datasets: int) -> float:
    """Nemenyi CD: rank gaps above this are significant at alpha=0.05."""
    if n_platforms < 2:
        raise ValidationError("need at least 2 platforms")
    if n_datasets < 2:
        raise ValidationError("need at least 2 datasets")
    try:
        q = _NEMENYI_Q05[n_platforms]
    except KeyError:
        raise ValidationError(
            f"Nemenyi table covers 2..10 platforms, got {n_platforms}"
        ) from None
    return float(
        q * np.sqrt(n_platforms * (n_platforms + 1) / (6.0 * n_datasets))
    )


def significantly_different_pairs(
    scores: dict[str, dict[str, float]],
) -> list[tuple[str, str, float]]:
    """Platform pairs whose Friedman-rank gap exceeds the Nemenyi CD.

    Returns ``(better, worse, rank_gap)`` tuples sorted by gap size.
    """
    ranks = friedman_ranking(scores)
    platforms = sorted(scores)
    common = set.intersection(*(set(scores[p]) for p in platforms))
    cd = nemenyi_critical_difference(len(platforms), len(common))
    pairs = []
    for i, a in enumerate(platforms):
        for b in platforms[i + 1:]:
            gap = abs(ranks[a] - ranks[b])
            if gap > cd:
                better, worse = (a, b) if ranks[a] < ranks[b] else (b, a)
                pairs.append((better, worse, float(gap)))
    pairs.sort(key=lambda item: -item[2])
    return pairs
