"""HTTP client with the in-process platform surface.

:class:`HTTPPlatformClient` speaks the :mod:`repro.serving.protocol`
wire format but exposes exactly the interface
:meth:`repro.core.runner.ExperimentRunner.run_one` and
:class:`repro.service.resilience.ResilientClient` drive —
``upload_dataset`` / ``create_model`` / ``get_model`` / ``await_model``
/ ``batch_predict`` / ``delete_dataset`` plus ``name``, ``controls``,
``complexity`` and ``synchronous``.  That makes the wire transparent to
the measurement harness: ``MLaaSStudy(platforms=[HTTPPlatformClient(...)
])`` runs an unchanged campaign over HTTP, and the loopback test suite
asserts the resulting store is bit-identical to the in-process run.

The control surface is mirrored from the local platform class registry
rather than fetched over the wire: Table 1 is static, versioned
knowledge — the paper's scripts likewise knew each platform's web UI
before the first request — and the platform-side validation still
happens on the server, where unsupported controls answer structured
400s that re-raise here as the same exception classes.

Server errors tunnel through the status + ``kind`` envelope
(:func:`~repro.serving.protocol.raise_for_error`), so retry/backoff
logic built on :class:`~repro.exceptions.QuotaExceededError` and
transient :class:`~repro.exceptions.JobFailedError` behaves identically
over the wire.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
from urllib.parse import urlsplit

from repro.exceptions import PlatformError, ValidationError
from repro.platforms import ALL_PLATFORMS
from repro.platforms.base import ModelHandle
from repro.serving.protocol import (
    decode_array,
    encode_array,
    handle_from_wire,
    raise_for_error,
)

__all__ = ["HTTPPlatformClient"]

_PLATFORM_CLASSES = {cls.name: cls for cls in ALL_PLATFORMS}


class _NoDelayConnection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle's algorithm off on every connect.

    ``http.client`` may send a POST's headers and body as two writes;
    with Nagle on, the body then waits for the server's delayed ACK.
    Some stdlib versions set ``TCP_NODELAY`` themselves; setting it here
    makes every supported Python behave alike, reconnects included.
    """

    def connect(self):
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class HTTPPlatformClient:
    """Drives one served platform; drop-in for the in-process object.

    Parameters
    ----------
    base_url : str
        Server root, e.g. ``"http://127.0.0.1:8151"``.
    platform_name : str
        Which mounted platform to address (``/platforms/<name>/...``).
    timeout : float
        Socket timeout in seconds for each request.
    client_id : str
        Prefix of the deterministic per-request ids this client sends
        in ``X-Repro-Request-Id`` (visible end-to-end in access logs).
    synchronous : bool
        Mirror of the served platform's job mode; the campaign layer
        reads it to decide whether ``create_model`` must be awaited.
    """

    def __init__(
        self,
        base_url: str,
        platform_name: str,
        timeout: float = 60.0,
        client_id: str = "client",
        synchronous: bool = True,
    ):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValidationError(
                f"base_url must be an http://host[:port] URL, "
                f"got {base_url!r}"
            )
        platform_class = _PLATFORM_CLASSES.get(platform_name)
        if platform_class is None:
            raise ValidationError(
                f"unknown platform {platform_name!r}; "
                f"known: {sorted(_PLATFORM_CLASSES)}"
            )
        self.name = platform_name
        self.controls = platform_class.controls
        self.complexity = platform_class.complexity
        self.synchronous = synchronous
        self.client_id = client_id
        self._host = parts.hostname
        self._port = parts.port if parts.port is not None else 80
        self._timeout = float(timeout)
        self._prefix = f"/platforms/{platform_name}"
        self._connection: http.client.HTTPConnection | None = None
        self._counter = itertools.count(1)
        self._lock = threading.RLock()

    # -- platform surface (what ExperimentRunner.run_one drives) ---------

    def upload_dataset(self, X, y, name: str = "dataset") -> str:
        """Upload a training dataset over the wire; returns its id."""
        body = self._request("POST", "/datasets", {
            "X": encode_array(X), "y": encode_array(y), "name": name,
        })
        return body["dataset_id"]

    def create_model(
        self,
        dataset_id: str,
        classifier: str | None = None,
        params=None,
        feature_selection: str | None = None,
    ) -> str:
        """Launch a training job over the wire; returns the model id."""
        payload = {"dataset_id": dataset_id}
        if classifier is not None:
            payload["classifier"] = classifier
        if params:
            payload["params"] = sorted(dict(params).items())
        if feature_selection is not None:
            payload["feature_selection"] = feature_selection
        body = self._request("POST", "/models", payload)
        return body["model_id"]

    def get_model(self, model_id: str) -> ModelHandle:
        """Poll a model's job state; returns a client-side handle."""
        body = self._request("GET", f"/models/{model_id}")
        return handle_from_wire(body)

    def await_model(self, model_id: str) -> ModelHandle:
        """Drive a queued job to a terminal state over the wire."""
        body = self._request("POST", f"/models/{model_id}/await")
        return handle_from_wire(body)

    def batch_predict(self, model_id: str, X):
        """Predict a batch; returns the label vector, dtype-exact."""
        body = self._request(
            "POST", f"/models/{model_id}/predict", {"X": encode_array(X)}
        )
        return decode_array(body.get("predictions"),
                            context="predictions payload")

    def delete_dataset(self, dataset_id: str) -> None:
        """Remove an uploaded dataset server-side."""
        self._request("DELETE", f"/datasets/{dataset_id}")

    def list_datasets(self) -> list:
        """Ids of the datasets currently stored on the served platform."""
        return self._request("GET", "/datasets")["datasets"]

    def list_models(self) -> list:
        """Ids of the models currently stored on the served platform."""
        return self._request("GET", "/models")["models"]

    # -- service endpoints ------------------------------------------------

    def health(self) -> dict:
        """The server's ``/health`` document."""
        return self._request("GET", "/health", absolute=True)

    def metrics_summary(self) -> dict:
        """The server's ``/metrics/summary`` document."""
        return self._request("GET", "/metrics/summary", absolute=True)

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    # -- wire plumbing ----------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None,
                 absolute: bool = False) -> dict:
        """One wire round-trip; errors re-raise as repro exceptions."""
        target = path if absolute else self._prefix + path
        raw = (json.dumps(payload, sort_keys=True).encode("utf-8")
               if payload is not None else None)
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Request-Id": self._next_request_id(),
        }
        with self._lock:
            try:
                status, body = self._round_trip(method, target, raw, headers)
            except (ConnectionError, http.client.HTTPException, OSError):
                # One reconnect: the server may have dropped an idle
                # keep-alive connection between requests.  A second
                # transport failure surfaces as PlatformError so callers
                # (runner, loadgen) handle it like any service outage.
                self.close()
                try:
                    status, body = self._round_trip(
                        method, target, raw, headers
                    )
                except (ConnectionError, http.client.HTTPException,
                        OSError) as exc:
                    self.close()
                    raise PlatformError(
                        f"cannot reach http://{self._host}:{self._port}: "
                        f"{exc}"
                    ) from exc
        if status >= 400:
            raise_for_error(status, body)
        return body

    def _round_trip(self, method, target, raw, headers) -> tuple:
        if self._connection is None:
            self._connection = _NoDelayConnection(
                self._host, self._port, timeout=self._timeout
            )
        self._connection.request(method, target, body=raw, headers=headers)
        response = self._connection.getresponse()
        payload = response.read()
        try:
            body = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise PlatformError(
                f"server answered HTTP {response.status} with a "
                f"non-JSON body of {len(payload)} bytes"
            ) from None
        return response.status, body

    def _next_request_id(self) -> str:
        with self._lock:
            return f"{self.client_id}-{self.name}-{next(self._counter):06d}"

    def __repr__(self) -> str:
        return (f"<HTTPPlatformClient name={self.name!r} "
                f"server=http://{self._host}:{self._port}>")
