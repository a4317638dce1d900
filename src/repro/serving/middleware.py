"""Middleware stack for the serving gateway.

Each middleware wraps a ``handler(request) -> Response`` callable; the
gateway composes them (outermost first) as::

    request-id -> access-log -> error-map -> soft-timeout -> body-limit
        -> router

* **request-id** — honours a client-supplied ``X-Repro-Request-Id``
  header, otherwise assigns a deterministic sequential id; the id is
  echoed on the response and stamped into every log/error record, which
  is what lets a campaign trace one failed measurement through client,
  access log and error body.
* **access-log** — appends one structured JSONL record per request
  (request id, method, path, status, elapsed seconds on the gateway
  clock) to an in-memory ring of the last :data:`ACCESS_LOG_WINDOW`
  records that optionally drains every record to a file.
* **error-map** — turns every :class:`~repro.exceptions.ReproError`
  into its :data:`~repro.serving.protocol.ERROR_STATUS` status with the
  structured JSON error envelope; unexpected exceptions become opaque
  500s (the handler thread must never die mid-response).
* **soft-timeout** — answers 504 when handling ran past the configured
  per-request deadline on the gateway clock (a *soft* timeout: the
  backend work completes, the caller gets the gateway-gave-up shape the
  paper's scripts had to handle).
* **body-limit** — rejects oversized bodies with 413 before routing.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from pathlib import Path

from repro.exceptions import (
    DeadlineExceededError,
    PayloadTooLargeError,
    ReproError,
)
from repro.serving.protocol import (
    Request,
    Response,
    ServingLimits,
    error_body,
    status_for_exception,
)

__all__ = [
    "ACCESS_LOG_WINDOW",
    "AccessLog",
    "RequestIdAllocator",
    "build_stack",
]

#: Header carrying the request id in both directions.
_REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Access records kept in memory; older ones survive only in the file.
ACCESS_LOG_WINDOW = 1024


class RequestIdAllocator:
    """Deterministic sequential request ids (``req-000001``, ...).

    Sequential — not random — ids keep the serving layer inside the
    project's determinism budget: a single-client session sees the same
    ids on every run, and concurrent sessions that need stable ids
    supply their own via the request header.
    """

    def __init__(self, prefix: str = "req"):
        self.prefix = prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def allocate(self) -> str:
        """The next request id."""
        with self._lock:
            return f"{self.prefix}-{next(self._counter):06d}"


class AccessLog:
    """Thread-safe structured access log with optional JSONL file drain.

    The last :data:`ACCESS_LOG_WINDOW` records stay in memory
    (``records()`` is the test/debug surface), so a long-running server
    does not grow with the requests it has served; when constructed
    with a path, :meth:`flush` appends every pending record as JSON
    Lines.  The pending batch is drained under the lock but written
    outside it, so request threads never block on file I/O; concurrent
    flushes may interleave *batches* out of order, but every line stays
    intact.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._records: deque[dict] = deque(maxlen=ACCESS_LOG_WINDOW)
        self._pending: list[dict] = []

    def record(self, entry: dict) -> None:
        """Append one access record (thread-safe, in-memory)."""
        with self._lock:
            self._records.append(entry)
            if self.path is not None:
                self._pending.append(entry)

    def records(self) -> list[dict]:
        """Copy of the most recent records, oldest first."""
        with self._lock:
            return list(self._records)

    def flush(self) -> None:
        """Append pending records to the log file (no-op when memory-only)."""
        if self.path is None:
            return
        with self._lock:
            batch, self._pending = self._pending, []
        if not batch:
            return
        lines = "".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in batch
        )
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(lines)


def _request_id_middleware(handler, allocator: RequestIdAllocator):
    """Assign/propagate the request id and echo it on the response."""

    def wrapped(request: Request) -> Response:
        supplied = request.headers.get(_REQUEST_ID_HEADER)
        request.request_id = supplied if supplied else allocator.allocate()
        response = handler(request)
        response.headers.setdefault(_REQUEST_ID_HEADER, request.request_id)
        return response

    return wrapped


def _access_log_middleware(handler, log: AccessLog, clock):
    """Record one structured entry per request, timed on the clock."""

    def wrapped(request: Request) -> Response:
        started = clock.now()
        response = handler(request)
        log.record({
            "request_id": request.request_id,
            "method": request.method,
            "path": request.path,
            "status": response.status,
            "elapsed_seconds": round(clock.now() - started, 9),
        })
        log.flush()
        return response

    return wrapped


def _error_middleware(handler):
    """Map exceptions onto structured JSON error responses."""

    def wrapped(request: Request) -> Response:
        try:
            return handler(request)
        except ReproError as exc:
            return Response(
                status=status_for_exception(exc),
                body=error_body(exc, request.request_id),
            )
        except Exception as exc:
            # Serving boundary: the failure is reported as a structured
            # 500 response — handler threads must outlive handler bugs.
            return Response(
                status=500,
                body=error_body(exc, request.request_id),
            )

    return wrapped


def _soft_timeout_middleware(handler, clock, limits: ServingLimits):
    """Answer 504 when handling ran past the per-request deadline."""

    def wrapped(request: Request) -> Response:
        deadline = limits.soft_timeout_seconds
        if deadline is None:
            return handler(request)
        started = clock.now()
        response = handler(request)
        elapsed = clock.now() - started
        if elapsed > deadline:
            exc = DeadlineExceededError(
                f"request exceeded the soft timeout: {elapsed:.3f}s elapsed, "
                f"deadline {deadline:.3f}s"
            )
            return Response(
                status=status_for_exception(exc),
                body=error_body(exc, request.request_id),
            )
        return response

    return wrapped


def _body_limit_middleware(handler, limits: ServingLimits):
    """Reject request bodies over the configured byte cap with 413."""

    def wrapped(request: Request) -> Response:
        declared = int(request.headers.get("Content-Length", 0) or 0)
        actual = len(request.raw_body)
        if max(declared, actual) > limits.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {max(declared, actual)} bytes exceeds "
                f"the {limits.max_body_bytes}-byte limit"
            )
        return handler(request)

    return wrapped


def build_stack(router, *, allocator, log, clock, limits) -> object:
    """Compose the full middleware stack around a route handler.

    Order (outermost first): request-id, access-log, error-map,
    soft-timeout, body-limit, ``router``.  The error map sits *inside*
    the access log so every failure is logged with its mapped status,
    and *outside* the timeout/limit checks so their rejections use the
    same structured envelope.
    """
    handler = _body_limit_middleware(router, limits)
    handler = _soft_timeout_middleware(handler, clock, limits)
    handler = _error_middleware(handler)
    handler = _access_log_middleware(handler, log, clock)
    handler = _request_id_middleware(handler, allocator)
    return handler
