"""Resilient platform client: bounded retries with deterministic backoff.

§3.2 of the paper notes that quota throttling forced the authors to pace
and restart their measurement scripts.  :class:`ResilientClient` bakes
that operational knowledge into a client-side wrapper over the platform
service API: every call is retried on :class:`QuotaExceededError` (and
on *transient* :class:`JobFailedError`\\ s) with seeded-jitter exponential
backoff, bounded by a :class:`RetryPolicy`.

Determinism contract: the jitter RNG is seeded from ``(seed, platform
name)`` via crc32 — the same derivation pattern as per-job seeds in
:mod:`repro.platforms.base` — and backoff waits go through the injected
clock (a :class:`~repro.service.clock.VirtualClock` by default), so a
retried campaign behaves identically on every machine and run.

The client exposes exactly the platform surface
:meth:`repro.core.runner.ExperimentRunner.run_one` drives
(``upload_dataset`` / ``create_model`` / ``get_model`` /
``await_model`` / ``batch_predict`` / ``delete_dataset`` plus ``name``),
so the runner works against a wrapped platform unchanged.  Calls are
additionally serialized through a per-client lock, making a shared
platform instance safe to drive from the campaign's worker threads.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    JobFailedError,
    QuotaExceededError,
    ValidationError,
)
from repro.service.clock import VirtualClock
from repro.service.telemetry import Telemetry

__all__ = ["RetryPolicy", "ResilientClient", "is_transient"]

#: Message fragments marking a JobFailedError as retryable: the job is
#: merely not finished yet (poll again), as opposed to terminally FAILED.
_TRANSIENT_FRAGMENTS = ("not ready", "queued but not in the job queue")


def is_transient(exc: Exception) -> bool:
    """Whether an exception is worth retrying.

    Quota errors always are — the quota window rolls forward.  A
    :class:`JobFailedError` is transient only when it reports the job as
    unfinished rather than failed; a model that trained and FAILED will
    fail identically on every retry.
    """
    if isinstance(exc, QuotaExceededError):
        return True
    if isinstance(exc, JobFailedError):
        message = str(exc)
        return any(fragment in message for fragment in _TRANSIENT_FRAGMENTS)
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with symmetric jitter.

    Attempt ``k`` (1-based) that fails transiently waits
    ``min(base_delay * multiplier**(k-1), max_delay) * (1 + jitter*u)``
    with ``u`` drawn uniformly from ``[-1, 1)`` by the client's seeded
    RNG, then retries — up to ``max_attempts`` total attempts.
    """

    max_attempts: int = 5
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("backoff delays cannot be negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def delay(self, attempt: int, u: float = 0.0) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        raw = self.base_delay * self.multiplier ** (attempt - 1)
        return max(0.0, min(raw, self.max_delay) * (1.0 + self.jitter * u))


class ResilientClient:
    """Retrying, thread-safe facade over one :class:`MLaaSPlatform`.

    Parameters
    ----------
    platform : MLaaSPlatform
        The wrapped service instance.
    policy : RetryPolicy
        Backoff/retry bounds (defaults to :class:`RetryPolicy`).
    clock : VirtualClock or WallClock
        Where backoff sleeps go.  Share the platform's rate-limiter
        clock (``MLaaSPlatform(clock=...)``) so waiting out a quota
        window actually rolls the window forward.
    telemetry : Telemetry
        Request/error accounting sink (a private one by default).
    seed : int
        Root of the deterministic jitter stream, combined with the
        platform name so every client jitters independently.
    """

    def __init__(
        self,
        platform,
        policy: RetryPolicy | None = None,
        clock=None,
        telemetry: Telemetry | None = None,
        seed: int = 0,
    ):
        self.platform = platform
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else VirtualClock()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        derived = zlib.crc32(f"{seed}:backoff:{platform.name}".encode())
        self._rng = np.random.default_rng(derived)
        self._lock = threading.RLock()

    @property
    def name(self) -> str:
        """The wrapped platform's name (runner-facing identity)."""
        return self.platform.name

    # -- platform surface (the exact API ExperimentRunner.run_one uses) --

    def upload_dataset(self, X, y, name: str = "dataset") -> str:
        """Upload a training dataset with retries; returns its id."""
        return self._call("upload_dataset", self.platform.upload_dataset,
                          X, y, name=name)

    def create_model(
        self,
        dataset_id: str,
        classifier: str | None = None,
        params=None,
        feature_selection: str | None = None,
    ) -> str:
        """Launch a training job with retries; returns the model id."""
        return self._call(
            "create_model", self.platform.create_model, dataset_id,
            classifier=classifier, params=params,
            feature_selection=feature_selection,
        )

    def get_model(self, model_id: str):
        """Poll a model's job state with retries."""
        return self._call("get_model", self.platform.get_model, model_id)

    def await_model(self, model_id: str):
        """Poll a job to a terminal state with retries."""
        return self._call("await_model", self.platform.await_model, model_id)

    def batch_predict(self, model_id: str, X):
        """Batch-predict against a trained model with retries."""
        return self._call("batch_predict", self.platform.batch_predict,
                          model_id, X)

    def delete_dataset(self, dataset_id: str) -> None:
        """Delete an uploaded dataset with retries."""
        return self._call("delete_dataset", self.platform.delete_dataset,
                          dataset_id)

    # -- retry engine ----------------------------------------------------

    def _call(self, operation: str, fn, *args, **kwargs):
        """Run one platform call under the retry policy.

        Transient failures (see :func:`is_transient`) back off and retry
        up to ``policy.max_attempts``; anything else — and the final
        transient failure — propagates to the caller after telemetry is
        recorded, where the runner's failed-measurement handling applies.
        """
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                with self._lock:
                    result = fn(*args, **kwargs)
            except (QuotaExceededError, JobFailedError) as exc:
                self.telemetry.record_error(self.name, type(exc).__name__)
                if not is_transient(exc) or attempts >= self.policy.max_attempts:
                    self.telemetry.record_request(
                        self.name, operation, attempts=attempts,
                        seconds=time.perf_counter() - started,
                        outcome="error",
                    )
                    raise
                # Draw under the client lock: two threads retrying
                # through one client would otherwise race on the
                # generator's internal state.
                with self._lock:
                    u = float(self._rng.uniform(-1.0, 1.0))
                self.clock.sleep(self.policy.delay(attempts, u))
                continue
            self.telemetry.record_request(
                self.name, operation, attempts=attempts,
                seconds=time.perf_counter() - started,
            )
            return result
