"""Campaign orchestration service layer (``repro.service``).

Turns the job-oriented platform simulators into infrastructure that can
serve a paper-scale measurement campaign (§3.2 ran ~1.7M API calls
against six rate-limited services):

* :mod:`repro.service.clock` — virtual/wall time sources; a shared
  :class:`VirtualClock` makes quota windows and backoff waits simulated,
  fast, and reproducible.
* :mod:`repro.service.resilience` — :class:`ResilientClient`, a retrying
  thread-safe facade over a platform with deterministic seeded-jitter
  exponential backoff under a :class:`RetryPolicy`.
* :mod:`repro.service.telemetry` — counters, latency/attempt histograms
  and per-platform request accounting with JSON snapshot export.
* :mod:`repro.service.campaign` — :func:`run_campaign`, the one
  campaign driver: the serial job table (:func:`build_campaign`), one
  resume index, one checkpoint writer and one telemetry schema, with
  the jobs run inline, on a thread pool (fair round-robin, one job in
  flight per platform, a bounded queue) or as dataset-keyed shards on a
  process pool past the GIL.  Whatever the executor, the result store
  and its checkpoint bytes are identical to the serial sweep.

Entry points: every ``MLaaSStudy`` protocol runs through
:func:`run_campaign` (``workers=N`` picks threads, ``processes=N``
processes, neither the inline executor), and the ``repro campaign`` CLI
runs any of them from the command line.
"""

from repro.service.campaign import CampaignJob, build_campaign, run_campaign
from repro.service.clock import VirtualClock, WallClock
from repro.service.resilience import ResilientClient, RetryPolicy, is_transient
from repro.service.telemetry import (
    Counter,
    Histogram,
    Telemetry,
    exact_quantile,
    percentile_summary,
)

__all__ = [
    "CampaignJob",
    "Counter",
    "Histogram",
    "ResilientClient",
    "RetryPolicy",
    "Telemetry",
    "VirtualClock",
    "WallClock",
    "build_campaign",
    "exact_quantile",
    "is_transient",
    "percentile_summary",
    "run_campaign",
]
