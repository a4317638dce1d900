"""HTTP front-end over the platform simulators.

Two layers:

* :class:`ServingGateway` — transport-independent request router.  It
  owns the platform instances (one lock per platform: the simulators
  are single-threaded objects, exactly like a real service's per-tenant
  job queue), the middleware stack, telemetry with exact latency
  samples, and the access log.  Tests can drive it directly with
  :class:`~repro.serving.protocol.Request` objects and a
  :class:`~repro.service.clock.VirtualClock` for deterministic timing.
* :class:`PlatformHTTPServer` — a stdlib ``ThreadingHTTPServer`` that
  parses HTTP, enforces the body cap before reading, hands the gateway
  a :class:`Request` and writes its :class:`Response` back.  pip is
  offline in the measurement environment, so there is deliberately no
  framework here — ``http.server`` is the whole wire stack.

Endpoints (all JSON)::

    GET    /health
    GET    /metrics/summary
    GET    /platforms
    POST   /platforms/<name>/datasets            {X, y, name}
    GET    /platforms/<name>/datasets
    DELETE /platforms/<name>/datasets/<id>
    POST   /platforms/<name>/models              {dataset_id, classifier,
                                                  params, feature_selection}
    GET    /platforms/<name>/models
    GET    /platforms/<name>/models/<id>
    POST   /platforms/<name>/models/<id>/await
    POST   /platforms/<name>/models/<id>/predict {X}

Every decoded array is re-validated at this edge (``check_array`` /
``check_X_y``) so malformed bodies answer structured 400s instead of
surfacing numpy errors from inside an estimator.
"""

from __future__ import annotations

import io
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import PayloadTooLargeError, ResourceNotFoundError
from repro.learn.validation import check_array, check_X_y
from repro.service.clock import WallClock
from repro.service.telemetry import Telemetry
from repro.serving.middleware import AccessLog, RequestIdAllocator, build_stack
from repro.serving.protocol import (
    Request,
    Response,
    ServingLimits,
    decode_array,
    encode_array,
    handle_to_wire,
)

__all__ = [
    "PlatformHTTPServer",
    "ServingGateway",
    "serve_background",
]


class ServingGateway:
    """Routes wire requests onto platform instances behind middleware.

    Parameters
    ----------
    platforms : sequence of MLaaSPlatform
        The simulators to serve, mounted at ``/platforms/<name>``.
    limits : ServingLimits or None
        Body/batch/soft-timeout caps (defaults apply when None).
    clock : VirtualClock or WallClock or None
        Time source for access-log timing, uptime and the soft timeout.
        Injecting a :class:`~repro.service.clock.VirtualClock` makes
        timing-dependent behaviour deterministic in tests.
    telemetry : Telemetry or None
        Metrics sink; per-operation latency samples are recorded so
        ``/metrics/summary`` reports exact percentiles.
    access_log : AccessLog or None
        Structured request log (in-memory by default).
    """

    def __init__(
        self,
        platforms,
        limits: ServingLimits | None = None,
        clock=None,
        telemetry: Telemetry | None = None,
        access_log: AccessLog | None = None,
    ):
        self.limits = limits if limits is not None else ServingLimits()
        self.clock = clock if clock is not None else WallClock()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.access_log = access_log if access_log is not None else AccessLog()
        self._platforms = {
            platform.name: platform for platform in platforms
        }
        self._platform_locks = {
            name: threading.RLock() for name in self._platforms
        }
        self._allocator = RequestIdAllocator()
        self._handler = build_stack(
            self._route,
            allocator=self._allocator,
            log=self.access_log,
            clock=self.clock,
            limits=self.limits,
        )
        self._started = self.clock.now()

    def platform_names(self) -> list[str]:
        """Sorted names of the mounted platforms."""
        return sorted(self._platforms)

    def handle(self, request: Request) -> Response:
        """Run one request through the full middleware stack."""
        return self._handler(request)

    # -- routing ---------------------------------------------------------

    def _route(self, request: Request) -> Response:
        segments = request.segments
        if segments == ("health",) and request.method == "GET":
            return self._health()
        if segments == ("metrics", "summary") and request.method == "GET":
            return self._metrics_summary()
        if segments == ("platforms",) and request.method == "GET":
            return self._list_platforms()
        if len(segments) >= 3 and segments[0] == "platforms":
            return self._route_platform(request, segments)
        raise ResourceNotFoundError(
            f"no resource at {request.method} {request.path}"
        )

    def _route_platform(self, request: Request, segments: tuple) -> Response:
        name, resource, rest = segments[1], segments[2], segments[3:]
        platform = self._platforms.get(name)
        if platform is None:
            raise ResourceNotFoundError(
                f"no platform {name!r}; serving {self.platform_names()}"
            )
        lock = self._platform_locks[name]
        if resource == "datasets":
            if request.method == "POST" and not rest:
                return self._upload_dataset(request, platform, lock)
            if request.method == "GET" and not rest:
                return self._timed(platform, lock, "list_datasets",
                                   lambda: {"datasets": platform.list_datasets()})
            if request.method == "DELETE" and len(rest) == 1:
                def delete() -> dict:
                    platform.delete_dataset(rest[0])
                    return {"deleted": rest[0]}
                return self._timed(platform, lock, "delete_dataset", delete)
        if resource == "models":
            if request.method == "POST" and not rest:
                return self._create_model(request, platform, lock)
            if request.method == "GET" and not rest:
                return self._timed(platform, lock, "list_models",
                                   lambda: {"models": platform.list_models()})
            if request.method == "GET" and len(rest) == 1:
                return self._timed(
                    platform, lock, "get_model",
                    lambda: handle_to_wire(platform.get_model(rest[0])),
                )
            if request.method == "POST" and rest[1:] == ("await",):
                return self._timed(
                    platform, lock, "await_model",
                    lambda: handle_to_wire(platform.await_model(rest[0])),
                )
            if request.method == "POST" and rest[1:] == ("predict",):
                return self._batch_predict(request, platform, lock, rest[0])
        raise ResourceNotFoundError(
            f"no resource at {request.method} {request.path}"
        )

    # -- service endpoints ----------------------------------------------

    def _health(self) -> Response:
        return Response(body={
            "status": "ok",
            "platforms": self.platform_names(),
            "uptime_seconds": round(self.clock.now() - self._started, 9),
        })

    def _metrics_summary(self) -> Response:
        snapshot = self.telemetry.snapshot()
        return Response(body={
            "counters": snapshot["counters"],
            "platforms": snapshot["platforms"],
            "operations": self.telemetry.sample_summaries(),
            "uptime_seconds": round(self.clock.now() - self._started, 9),
        })

    def _list_platforms(self) -> Response:
        return Response(body={"platforms": [
            {
                "name": name,
                "complexity": platform.complexity,
                "synchronous": platform.synchronous,
                "controls": sorted(platform.exposed_dimensions),
                "classifiers": platform.classifier_abbrs(),
            }
            for name, platform in sorted(self._platforms.items())
        ]})

    # -- platform operations ---------------------------------------------

    def _upload_dataset(self, request, platform, lock) -> Response:
        body = request.json()
        X = decode_array(body.get("X"), context="field 'X'")
        y = decode_array(body.get("y"), context="field 'y'")
        self._check_batch_rows(X, "upload")
        # Validate at the serving edge: malformed payloads answer a
        # structured 400 here instead of a numpy error mid-fit.
        X, y = check_X_y(X, y, min_samples=2)
        dataset_name = str(body.get("name", "dataset"))
        return self._timed(
            platform, lock, "upload_dataset",
            lambda: {"dataset_id": platform.upload_dataset(
                X, y, name=dataset_name)},
        )

    def _create_model(self, request, platform, lock) -> Response:
        body = request.json()
        params = body.get("params") or None
        if params is not None and not isinstance(params, dict):
            params = {name: value for name, value in params}
        classifier = body.get("classifier")
        feature_selection = body.get("feature_selection")
        dataset_id = str(body.get("dataset_id", ""))
        return self._timed(
            platform, lock, "create_model",
            lambda: {"model_id": platform.create_model(
                dataset_id,
                classifier=classifier,
                params=params,
                feature_selection=feature_selection,
            )},
        )

    def _batch_predict(self, request, platform, lock, model_id) -> Response:
        body = request.json()
        X = decode_array(body.get("X"), context="field 'X'")
        self._check_batch_rows(X, "predict")
        X = check_array(X)
        def predict() -> dict:
            predictions = platform.batch_predict(model_id, X)
            return {"predictions": encode_array(predictions)}
        return self._timed(platform, lock, "batch_predict", predict)

    def _check_batch_rows(self, X, operation: str) -> None:
        rows = int(X.shape[0]) if X.ndim else 0
        if rows > self.limits.max_batch_rows:
            raise PayloadTooLargeError(
                f"{operation} batch of {rows} rows exceeds the "
                f"{self.limits.max_batch_rows}-row limit"
            )

    def _timed(self, platform, lock, operation: str, fn) -> Response:
        """Run one platform operation under its lock, with telemetry.

        Errors propagate to the error middleware after being counted;
        latency is measured on the gateway clock and recorded as a raw
        sample so ``/metrics/summary`` reports exact percentiles.
        """
        started = self.clock.now()
        try:
            with lock:
                body = fn()
        except Exception as exc:
            self.telemetry.record_error(platform.name, type(exc).__name__)
            self.telemetry.record_request(
                platform.name, operation,
                seconds=self.clock.now() - started, outcome="error",
            )
            raise
        self.telemetry.record_request(
            platform.name, operation, seconds=self.clock.now() - started,
        )
        self.telemetry.record_sample(
            f"latency_samples.{operation}", self.clock.now() - started,
        )
        return Response(body=body)


class PlatformHTTPServer(ThreadingHTTPServer):
    """Threaded stdlib HTTP server bound to one :class:`ServingGateway`.

    Each connection is handled on its own daemon thread; the gateway's
    per-platform locks serialize simulator access underneath, so the
    wire front-end adds concurrency without adding nondeterminism.
    """

    daemon_threads = True

    def __init__(self, gateway: ServingGateway,
                 host: str = "127.0.0.1", port: int = 0,
                 max_requests: int | None = None):
        super().__init__((host, port), _GatewayRequestHandler)
        self.gateway = gateway
        self._budget_lock = threading.Lock()
        self._requests_left = max_requests

    @property
    def url(self) -> str:
        """Base URL of the bound socket (port resolved when 0 was asked)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def note_request_handled(self) -> bool:
        """Count one handled request; True when the budget just ran out."""
        with self._budget_lock:
            if self._requests_left is None:
                return False
            self._requests_left -= 1
            return self._requests_left <= 0


class _ResponseWriter(io.BufferedIOBase):
    """``wfile`` that sends everything written since the last flush at once.

    The stdlib handler writes the status line and headers
    (``end_headers``) and then the body as two sends.  On a keep-alive
    connection with Nagle's algorithm on, the body then waits for the
    client's delayed ACK: ~40 ms per reply on Linux loopback.  Holding
    the pieces until :meth:`flush` puts every response — gateway
    replies and the stdlib's own ``send_error`` pages alike — on the
    wire in one ``sendall``.  ``handle_one_request`` flushes after each
    request and ``finish`` before the connection closes.
    """

    def __init__(self, sock):
        self._sock = sock
        self._parts: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        chunk = bytes(data)
        self._parts.append(chunk)
        return len(chunk)

    def flush(self) -> None:
        if self._parts:
            data = b"".join(self._parts)
            self._parts.clear()
            self._sock.sendall(data)


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """Translates raw HTTP to gateway :class:`Request`/:class:`Response`.

    Each response leaves in one write (:class:`_ResponseWriter`) on a
    socket with ``TCP_NODELAY`` set, so no reply ever waits on the
    peer's delayed ACK.
    """

    server_version = "repro-serving/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def handle_expect_100(self):
        # The interim 100 Continue is its own response: the client holds
        # the body back until it arrives, so it cannot wait for the final
        # reply's flush.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def do_GET(self):  # noqa: N802 (stdlib handler naming)
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway
        declared = int(self.headers.get("Content-Length", 0) or 0)
        if declared > gateway.limits.max_body_bytes:
            # Refuse before reading: the body-limit middleware sees the
            # declared length and answers 413; the unread body forces a
            # connection close instead of a poisoned keep-alive stream.
            raw_body = b""
            self.close_connection = True
        else:
            raw_body = self.rfile.read(declared) if declared else b""
        request = Request(
            method=method,
            path=self.path,
            raw_body=raw_body,
            headers={key: value for key, value in self.headers.items()},
        )
        response = gateway.handle(request)
        payload = response.payload()
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()
        if self.server.note_request_handled():
            # The request budget (serve --max-requests) is exhausted:
            # stop the serve loop from this handler thread.
            threading.Thread(target=self.server.shutdown).start()

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        """Silence the default stderr chatter; AccessLog is the record."""


def serve_background(gateway: ServingGateway,
                     host: str = "127.0.0.1", port: int = 0):
    """Boot a server on a daemon thread; returns ``(server, thread)``.

    The loopback pattern every test and benchmark uses::

        server, thread = serve_background(ServingGateway([BigML()]))
        client = HTTPPlatformClient(server.url, "bigml")
        ...
        server.shutdown(); thread.join()
    """
    server = PlatformHTTPServer(gateway, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True, name="repro-serving"
    )
    thread.start()
    return server, thread
