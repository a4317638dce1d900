"""Tests for the retrying platform client and its backoff policy."""

import pytest

from repro.core import Configuration, ExperimentRunner
from repro.datasets import load_dataset
from repro.exceptions import (
    JobFailedError,
    QuotaExceededError,
    ResourceNotFoundError,
    ValidationError,
)
from repro.platforms import Amazon, Google, Microsoft
from repro.service import (
    ResilientClient,
    RetryPolicy,
    Telemetry,
    VirtualClock,
    is_transient,
)


@pytest.fixture()
def data(linear_data):
    X_train, y_train, X_test, _ = linear_data
    return X_train, y_train, X_test


# -- RetryPolicy -----------------------------------------------------------

def test_policy_delay_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=10.0,
                         jitter=0.0)
    assert policy.delay(1) == 1.0
    assert policy.delay(2) == 2.0
    assert policy.delay(3) == 4.0
    assert policy.delay(10) == 10.0  # capped


def test_policy_jitter_bounds():
    policy = RetryPolicy(base_delay=4.0, jitter=0.5)
    assert policy.delay(1, u=-1.0) == pytest.approx(2.0)
    assert policy.delay(1, u=0.99) == pytest.approx(4.0 * 1.495)


def test_policy_validates_bounds():
    with pytest.raises(ValidationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValidationError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValidationError):
        RetryPolicy(jitter=1.0)


def test_is_transient_classification():
    assert is_transient(QuotaExceededError("rate limit"))
    assert is_transient(JobFailedError("model m is not ready"))
    assert not is_transient(JobFailedError("model m failed: bad config"))
    assert not is_transient(ResourceNotFoundError("no dataset"))


# -- ResilientClient -------------------------------------------------------

def test_client_passes_through_when_no_failures(data):
    X, y, X_test = data
    client = ResilientClient(Microsoft(random_state=3))
    dataset_id = client.upload_dataset(X, y)
    model_id = client.create_model(dataset_id, classifier="LR")
    predictions = client.batch_predict(model_id, X_test)
    assert len(predictions) == len(X_test)
    client.delete_dataset(dataset_id)
    assert client.name == "microsoft"
    requests = client.telemetry.platform_requests("microsoft")
    assert requests == {
        "upload_dataset": 1, "create_model": 1,
        "batch_predict": 1, "delete_dataset": 1,
    }


def test_client_retries_through_quota_exhaustion(data):
    X, y, X_test = data
    clock = VirtualClock()
    platform = Google(rate_limit_per_minute=2, clock=clock)
    client = ResilientClient(
        platform,
        policy=RetryPolicy(max_attempts=8, base_delay=16.0, jitter=0.0),
        clock=clock,
    )
    # 2 requests/minute: the 3rd+ calls must wait out the rolling window.
    dataset_id = client.upload_dataset(X, y)
    model_id = client.create_model(dataset_id)
    predictions = client.batch_predict(model_id, X_test)
    assert len(predictions) == len(X_test)
    errors = client.telemetry.platform_errors("google")
    assert errors.get("QuotaExceededError", 0) >= 1
    assert client.telemetry.counter_value("retries_total") >= 1
    assert clock.total_slept > 0  # waits happened, in virtual time only


def test_client_raises_after_bounded_attempts(data):
    X, y, _ = data
    clock = VirtualClock()
    # Zero-length backoff never rolls the window: retries must exhaust.
    platform = Google(rate_limit_per_minute=1, clock=clock)
    client = ResilientClient(
        platform,
        policy=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        clock=clock,
    )
    client.upload_dataset(X, y)
    with pytest.raises(QuotaExceededError):
        client.upload_dataset(X, y)
    errors = client.telemetry.platform_errors("google")
    assert errors["QuotaExceededError"] == 3  # one per bounded attempt


def test_client_does_not_retry_permanent_failures(data):
    X, y, _ = data
    telemetry = Telemetry()
    client = ResilientClient(Microsoft(random_state=0), telemetry=telemetry)
    with pytest.raises(ResourceNotFoundError):
        client.create_model("no-such-dataset", classifier="LR")
    # Permanent errors propagate immediately without retry accounting.
    assert telemetry.counter_value("retries_total") == 0


def test_client_retries_transient_job_failures(data):
    X, y, X_test = data

    class FlakyAmazon(Amazon):
        flaked = 0

        def batch_predict(self, model_id, X):
            if type(self).flaked < 2:
                type(self).flaked += 1
                raise JobFailedError(f"model {model_id} is not ready")
            return super().batch_predict(model_id, X)

    client = ResilientClient(FlakyAmazon(random_state=0),
                             policy=RetryPolicy(max_attempts=5, base_delay=1.0))
    dataset_id = client.upload_dataset(X, y)
    model_id = client.create_model(dataset_id, classifier="LR")
    predictions = client.batch_predict(model_id, X_test)
    assert len(predictions) == len(X_test)
    assert FlakyAmazon.flaked == 2
    errors = client.telemetry.platform_errors("amazon")
    assert errors["JobFailedError"] == 2


def test_client_awaits_async_platforms():
    # run_one sees the queued job and polls it to completion through the
    # client, so the async measurement equals the synchronous one.
    dataset = load_dataset("synthetic/linear", size_cap=150)
    configuration = Configuration.make(classifier="RF")
    runner = ExperimentRunner(split_seed=0)
    client = ResilientClient(Microsoft(random_state=3, synchronous=False))
    measured = runner.run_one(client, dataset, configuration)
    assert measured.ok
    assert client.telemetry.platform_requests("microsoft")["await_model"] == 1
    reference = runner.run_one(Microsoft(random_state=3), dataset,
                               configuration)
    assert measured == reference


def test_jitter_stream_is_deterministic(data):
    X, y, _ = data

    def retry_delays(seed):
        clock = VirtualClock()
        platform = Google(rate_limit_per_minute=1, clock=clock)
        client = ResilientClient(
            platform,
            policy=RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.5),
            clock=clock, seed=seed,
        )
        client.upload_dataset(X, y)
        with pytest.raises(QuotaExceededError):
            client.upload_dataset(X, y)
        return clock.total_slept

    assert retry_delays(7) == retry_delays(7)
    assert retry_delays(7) != retry_delays(8)
