"""Statistical machinery: Friedman ranking and related tests.

The paper validates its headline metric by checking that ranking
platforms by average F-score matches their Friedman ranking across all
datasets (§3.2, Table 3).  The Friedman procedure ranks the competitors
within each dataset, then averages ranks across datasets; it is the
standard test for comparing classifiers over multiple datasets (Demšar
2006, cited by the paper).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["friedman_ranking", "friedman_test", "standard_error"]


def _rank_row(values: np.ndarray) -> np.ndarray:
    """Rank one dataset's scores: rank 1 = best, midranks for ties."""
    from scipy.stats import rankdata

    # rankdata ranks ascending; we want descending (higher score = rank 1).
    return rankdata(-values, method="average")


def friedman_ranking(scores: dict[str, dict[str, float]]) -> dict[str, float]:
    """Average Friedman rank per competitor (lower = consistently better).

    Parameters
    ----------
    scores : dict
        ``{competitor: {dataset: score}}``.  Only datasets scored by every
        competitor participate (the test requires complete blocks).
    """
    competitors = sorted(scores)
    if len(competitors) < 2:
        raise ValidationError("Friedman ranking needs at least 2 competitors")
    common = set.intersection(*(set(scores[c]) for c in competitors))
    if not common:
        raise ValidationError("no dataset was scored by every competitor")
    datasets = sorted(common)
    matrix = np.array([
        [scores[competitor][dataset] for competitor in competitors]
        for dataset in datasets
    ])
    ranks = np.apply_along_axis(_rank_row, 1, matrix)
    mean_ranks = ranks.mean(axis=0)
    return dict(zip(competitors, mean_ranks.tolist()))


def friedman_test(scores: dict[str, dict[str, float]]) -> tuple[float, float]:
    """Friedman chi-square statistic and p-value over complete blocks."""
    from scipy.stats import friedmanchisquare

    competitors = sorted(scores)
    common = set.intersection(*(set(scores[c]) for c in competitors))
    datasets = sorted(common)
    if len(datasets) < 3 or len(competitors) < 3:
        raise ValidationError(
            "Friedman test needs >= 3 competitors and >= 3 datasets"
        )
    columns = [
        np.array([scores[competitor][dataset] for dataset in datasets])
        for competitor in competitors
    ]
    statistic, p_value = friedmanchisquare(*columns)
    return float(statistic), float(p_value)


def standard_error(values) -> float:
    """Standard error of the mean (the error bars of Fig 4)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    if values.size == 1:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))
