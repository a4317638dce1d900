"""Statistics the benchmark reports, kept free of any ``repro`` import.

Every helper here is exercised by ``test_perfbench.py``:

* :func:`tail_percentile` applies the reporting rule that a tail
  percentile needs at least ten samples beyond it;
* :func:`quartile_spread` is the run-to-run spread the acceptance check
  uses (inter-quartile distance as a share of the median, with
  :func:`statistics.quantiles` at ``n=4``);
* :func:`transport_ms` subtracts server-side from client-side latency
  only over operations both sides measured.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "TAIL_PERCENTILES",
    "median",
    "percentile",
    "quartile_spread",
    "samples_beyond",
    "tail_percentile",
    "transport_ms",
]

#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of zero samples")
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (rank ``pct/100 * (n - 1)``)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of zero samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    rank = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` rank."""
    rank = pct / 100.0 * (n - 1)
    return max(0, n - 1 - math.floor(rank))


def tail_percentile(values, candidates=TAIL_PERCENTILES):
    """The highest candidate percentile with >= 10 samples beyond it.

    Returns ``(pct, value)``, or ``None`` when even the lowest
    candidate is not supported by the sample count.
    """
    values = list(values)
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(len(values), pct) >= 10:
            return pct, percentile(values, pct)
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("spread needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread of a zero median is undefined")
    return (q3 - q1) / abs(mid)


def transport_ms(client_p50: dict, server_p50: dict) -> dict:
    """Client minus server p50 per operation, over operations both saw.

    An operation measured on one side only has no transport figure: a
    difference against a missing side would be the whole latency.
    """
    return {
        op: client_p50[op] - server_p50[op]
        for op in sorted(set(client_p50) & set(server_p50))
    }
