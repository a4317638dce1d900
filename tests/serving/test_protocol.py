"""Wire-protocol unit tests: encodings, error taxonomy, handle forms."""

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    JobFailedError,
    NotFittedError,
    PayloadTooLargeError,
    PlatformError,
    QuotaExceededError,
    ReproError,
    ResourceNotFoundError,
    UnsupportedControlError,
    ValidationError,
)
from repro.platforms.base import JobState, ModelHandle, TrainingFailure
from repro.serving.protocol import (
    ERROR_STATUS,
    ServingLimits,
    decode_array,
    decode_json_body,
    encode_array,
    error_body,
    handle_from_wire,
    handle_to_wire,
    raise_for_error,
    status_for_exception,
)


@pytest.mark.parametrize("dtype", ["float64", "int64", "intp", "float32"])
def test_array_roundtrip_preserves_bytes_and_dtype(dtype):
    rng = np.random.default_rng(3)
    array = (rng.standard_normal((7, 4)) * 1e3).astype(np.dtype(dtype))
    decoded = decode_array(encode_array(array))
    assert decoded.dtype == array.dtype
    assert decoded.tobytes() == array.tobytes()


def test_float64_roundtrip_is_bit_exact_for_awkward_values():
    array = np.array([0.1, 1.0 / 3.0, np.pi, 1e-308, -0.0, 2.0**53 + 1])
    decoded = decode_array(encode_array(array))
    assert decoded.tobytes() == array.tobytes()


@pytest.mark.parametrize("payload", [
    None, [], "x", {"dtype": "float64"}, {"data": [["a", "b"]]},
    {"data": [1], "dtype": "not-a-dtype"},
])
def test_malformed_array_payloads_raise_validation_error(payload):
    with pytest.raises(ValidationError):
        decode_array(payload)


@pytest.mark.parametrize("raw", [b"", b"not json", b"[1, 2]", b"\xff\xfe"])
def test_malformed_json_bodies_raise_validation_error(raw):
    with pytest.raises(ValidationError):
        decode_json_body(raw)


@pytest.mark.parametrize("exc,status", [
    (ValidationError("x"), 400),
    (UnsupportedControlError("x"), 400),
    (ResourceNotFoundError("x"), 404),
    (JobFailedError("x"), 409),
    # Regression: predict-before-fit surfaced as a bare 500 until the
    # kind earned its own wire mapping (found by the wire analyzer, W502).
    (NotFittedError("x"), 409),
    (PayloadTooLargeError("x"), 413),
    (QuotaExceededError("x"), 429),
    (DeadlineExceededError("x"), 504),
    (PlatformError("x"), 502),
    (ReproError("x"), 500),
    (RuntimeError("x"), 500),
])
def test_every_exception_maps_to_its_status(exc, status):
    assert status_for_exception(exc) == status


def test_unlisted_subclasses_inherit_their_ancestors_status():
    class CustomPlatformTrouble(PlatformError):
        pass

    assert status_for_exception(CustomPlatformTrouble("x")) == 502


@pytest.mark.parametrize("kind", sorted(ERROR_STATUS))
def test_raise_for_error_restores_the_exception_class(kind):
    status = ERROR_STATUS[kind]
    body = error_body_for(kind, "the exact detail text")
    with pytest.raises(ReproError) as excinfo:
        raise_for_error(status, body)
    assert type(excinfo.value).__name__ == kind
    # The detail crosses the wire verbatim: failure_reason strings and
    # is_transient substring matching behave as in-process.
    assert str(excinfo.value) == "the exact detail text"


def error_body_for(kind: str, detail: str) -> dict:
    """A server-shaped error envelope for one kind."""
    return {"error": {"kind": kind, "detail": detail, "request_id": "r-1"}}


def test_raise_for_error_without_envelope_is_a_platform_error():
    with pytest.raises(PlatformError, match="HTTP 500"):
        raise_for_error(500, {"oops": True})


def test_error_body_shape_matches_the_wire_contract():
    body = error_body(ValidationError("bad"), "req-000009")
    assert body == {"error": {
        "kind": "ValidationError", "detail": "bad",
        "request_id": "req-000009",
    }}


def test_handle_roundtrip_including_structured_failure():
    handle = ModelHandle(
        model_id="m-1", dataset_id="d-1", state=JobState.FAILED,
        classifier_abbr="DT", params={"max_depth": 3, "alpha": 0.5},
        feature_selection="KB5", estimator=object(),
        failure_reason=TrainingFailure(
            stage="fit", kind="degenerate_data", detail="one class"
        ),
        metadata={"train_seconds": 0.25, "estimator": object()},
    )
    restored = handle_from_wire(handle_to_wire(handle))
    assert restored.model_id == handle.model_id
    assert restored.dataset_id == handle.dataset_id
    assert restored.state is JobState.FAILED
    assert restored.classifier_abbr == "DT"
    assert restored.params == handle.params
    assert restored.feature_selection == "KB5"
    assert restored.estimator is None  # stays server-side by design
    assert str(restored.failure_reason) == str(handle.failure_reason)
    # Only JSON-safe metadata crosses; the estimator object does not.
    assert restored.metadata == {"train_seconds": 0.25}


def test_handle_from_wire_rejects_garbage():
    with pytest.raises(ValidationError):
        handle_from_wire({"no": "model_id"})


def test_serving_limits_validate():
    with pytest.raises(ValidationError):
        ServingLimits(max_body_bytes=0)
    with pytest.raises(ValidationError):
        ServingLimits(max_batch_rows=0)
    with pytest.raises(ValidationError):
        ServingLimits(soft_timeout_seconds=-1.0)
    assert ServingLimits(soft_timeout_seconds=None).soft_timeout_seconds is None
