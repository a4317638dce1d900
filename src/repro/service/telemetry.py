"""Campaign telemetry: counters, histograms, per-platform accounting.

The paper reports ~1.7M measurements against six rate-limited services;
at that scale a campaign without request accounting is undebuggable (was
the sweep slow, throttled, or failing?).  This module is the service
layer's observability surface:

* :class:`Counter` — a named monotonic counter.
* :class:`Histogram` — fixed-bucket distribution (latencies, attempts).
* :class:`Telemetry` — a thread-safe registry of both, plus per-platform
  per-operation request accounting, exported as a deterministic JSON
  snapshot (sorted keys) so CI can archive and diff campaign runs.

All state is guarded by one lock; recording from worker threads is safe.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path

__all__ = [
    "ATTEMPT_BUCKETS",
    "Counter",
    "Histogram",
    "LATENCY_BUCKETS_SECONDS",
    "SAMPLE_WINDOW",
    "SUMMARY_PERCENTILES",
    "Telemetry",
    "exact_quantile",
    "percentile_summary",
]

#: Default latency buckets (seconds): sub-millisecond to minutes.
LATENCY_BUCKETS_SECONDS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Default buckets for the attempts-per-call distribution.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)

#: The percentiles every summary reports (the serving benchmark's
#: p50/p95/p99 and the tails the paper's latency discussion cares about).
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)

#: Raw samples kept per series: the most recent ones, so a long-running
#: server's memory stays flat.  Summaries are exact over this window,
#: and at 2048 the p99 still has 20 samples beyond it.
SAMPLE_WINDOW = 2048


def exact_quantile(sorted_samples, q: float) -> float:
    """Exact linear-interpolation quantile of pre-sorted samples.

    ``q`` is in [0, 1].  This is the deterministic "linear" method
    (rank ``q * (n - 1)`` interpolated between neighbours) computed in
    plain Python so every consumer — ``/metrics/summary``, the load
    generator and the benchmarks — derives bit-identical values from the
    same recorded samples.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not sorted_samples:
        raise ValueError("cannot take a quantile of zero samples")
    n = len(sorted_samples)
    if n == 1:
        return float(sorted_samples[0])
    rank = q * (n - 1)
    low = int(rank)
    frac = rank - low
    if low + 1 >= n:
        return float(sorted_samples[-1])
    return float(
        sorted_samples[low] + frac * (sorted_samples[low + 1] - sorted_samples[low])
    )


def percentile_summary(samples, percentiles=SUMMARY_PERCENTILES) -> dict:
    """Deterministic JSON summary of a sample list.

    Returns ``count``/``mean``/``min``/``max`` plus one ``p<N>`` key per
    requested percentile, every float rounded to 9 decimals so the JSON
    rendering is stable across runs and platforms.  An empty sample list
    yields ``{"count": 0}`` — callers can always embed the result.
    """
    values = sorted(float(v) for v in samples)
    if not values:
        return {"count": 0}
    summary = {
        "count": len(values),
        "mean": round(sum(values) / len(values), 9),
        "min": round(values[0], 9),
        "max": round(values[-1], 9),
    }
    for percentile in percentiles:
        label = f"{float(percentile):g}"
        summary[f"p{label}"] = round(
            exact_quantile(values, float(percentile) / 100.0), 9
        )
    return summary


class Counter:
    """A named monotonic counter."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def to_dict(self) -> int:
        """Snapshot representation (the bare value)."""
        return self.value


class Histogram:
    """Fixed-bucket histogram with an implicit +Inf overflow bucket."""

    def __init__(self, name: str, buckets: tuple = LATENCY_BUCKETS_SECONDS):
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        position = len(self.buckets)
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                position = i
                break
        self.counts[position] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot: bucket upper bounds and counts."""
        uppers = [*self.buckets, "+Inf"]
        return {
            "buckets": {str(u): c for u, c in zip(uppers, self.counts)},
            "count": self.count,
            "total": round(self.total, 9),
        }


class Telemetry:
    """Thread-safe registry of campaign metrics.

    Three views:

    * flat counters (``increment``/``counter_value``) for campaign-wide
      totals (requests, retries, jobs);
    * named histograms (``observe``) for distributions (per-call latency,
      attempts per logical call);
    * per-platform accounting (``record_request``/``record_error``) with
      per-operation request counts and per-exception-kind error counts —
      the "which service throttled us" question.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._platforms: dict[str, dict] = {}
        self._samples: dict[str, deque[float]] = {}

    # -- recording -------------------------------------------------------

    def increment(self, name: str, n: int = 1) -> None:
        """Bump the named campaign-wide counter."""
        with self._lock:
            self._counter(name).increment(n)

    def observe(self, name: str, value: float, buckets: tuple | None = None) -> None:
        """Record one observation into the named histogram.

        ``buckets`` picks the bucket layout when the histogram is created
        on first use; later calls reuse the existing layout.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(
                    name, buckets if buckets is not None
                    else LATENCY_BUCKETS_SECONDS,
                )
                self._histograms[name] = histogram
            histogram.observe(value)

    def record_request(
        self,
        platform: str,
        operation: str,
        attempts: int = 1,
        seconds: float = 0.0,
        outcome: str = "ok",
    ) -> None:
        """Account one logical API call against a platform.

        ``attempts`` is the number of physical requests issued (1 + the
        retries); ``seconds`` the end-to-end latency of the logical call
        including backoff; ``outcome`` is ``"ok"`` or ``"error"``.
        """
        with self._lock:
            entry = self._platform(platform)
            ops = entry["requests"]
            ops[operation] = ops.get(operation, 0) + int(attempts)
            self._counter("requests_total").increment(int(attempts))
            if attempts > 1:
                self._counter("retries_total").increment(int(attempts) - 1)
                entry["retries"] += int(attempts) - 1
            if outcome != "ok":
                self._counter("failed_calls_total").increment()
        self.observe(f"latency_seconds.{operation}", seconds)
        self.observe("attempts_per_call", float(attempts),
                     buckets=ATTEMPT_BUCKETS)

    def record_sample(self, name: str, value: float) -> None:
        """Keep one raw observation for exact-quantile summaries.

        Unlike :meth:`observe`, the value itself is retained (not just a
        bucket count), so :meth:`sample_summaries` can report exact
        percentiles — what the serving layer's ``/metrics/summary`` is
        built on.  Each series keeps its last :data:`SAMPLE_WINDOW`
        values; older ones are dropped.
        """
        with self._lock:
            series = self._samples.get(name)
            if series is None:
                series = self._samples[name] = deque(maxlen=SAMPLE_WINDOW)
            series.append(float(value))

    def sample_values(self, name: str) -> list:
        """Copy of the retained samples under ``name``, oldest first."""
        with self._lock:
            return list(self._samples.get(name, ()))

    def sample_summaries(self) -> dict:
        """Exact percentile summaries of every series' retained window."""
        with self._lock:
            series = {name: list(values)
                      for name, values in self._samples.items()}
        return {
            name: percentile_summary(values)
            for name, values in sorted(series.items())
        }

    def record_error(self, platform: str, kind: str) -> None:
        """Count one exception (by class name) observed for a platform."""
        with self._lock:
            entry = self._platform(platform)
            errors = entry["errors"]
            errors[kind] = errors.get(kind, 0) + 1
            self._counter("errors_total").increment()

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def platform_requests(self, platform: str) -> dict:
        """Per-operation physical request counts for one platform."""
        with self._lock:
            entry = self._platforms.get(platform)
            return dict(entry["requests"]) if entry else {}

    def platform_errors(self, platform: str) -> dict:
        """Per-exception-kind error counts for one platform."""
        with self._lock:
            entry = self._platforms.get(platform)
            return dict(entry["errors"]) if entry else {}

    def snapshot(self) -> dict:
        """Deterministic JSON-serializable snapshot of all metrics."""
        with self._lock:
            return {
                "counters": {
                    name: counter.to_dict()
                    for name, counter in sorted(self._counters.items())
                },
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
                "platforms": {
                    name: {
                        "errors": dict(sorted(entry["errors"].items())),
                        "requests": dict(sorted(entry["requests"].items())),
                        "retries": entry["retries"],
                    }
                    for name, entry in sorted(self._platforms.items())
                },
            }

    def save(self, path) -> None:
        """Write the snapshot as stable JSON (sorted keys, 2-space indent)."""
        Path(path).write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- internals (callers hold the lock) -------------------------------

    def _counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:  # repro: disable=C203 -- private helper: every caller already holds self._lock
            counter = self._counters[name] = Counter(name)
        return counter

    def _platform(self, name: str) -> dict:
        entry = self._platforms.get(name)
        if entry is None:  # repro: disable=C203 -- private helper: every caller already holds self._lock
            entry = self._platforms[name] = {
                "requests": {}, "errors": {}, "retries": 0,
            }
        return entry
