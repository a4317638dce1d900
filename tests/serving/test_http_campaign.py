"""The acceptance contract: campaigns over HTTP are bit-identical.

The same small-corpus measurement campaign is run three ways — the
in-process serial sweep, an HTTP sweep through
:class:`HTTPPlatformClient` against a live loopback server, and the
thread executor of :func:`run_campaign` with HTTP clients (repeated, in
the thread-stress pattern of ``tests/service/test_thread_stress.py``) —
and every result list must compare equal.  Because
:class:`~repro.core.results.ExperimentResult` equality covers platform,
dataset, configuration, metrics, status and failure reason, equality
here means the wire added *nothing*: not a ulp of metric drift, not a
reordering, not a changed failure string.
"""

from contextlib import contextmanager

import pytest

from repro.core import ExperimentRunner, MLaaSStudy, StudyScale
from repro.core.config_space import baseline_configuration
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.platforms import Amazon, BigML, Google
from repro.service import run_campaign
from repro.serving import HTTPPlatformClient, ServingGateway, serve_background

PLATFORM_CLASSES = [Google, Amazon, BigML]
STRESS_ITERATIONS = 4


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(max_datasets=3, size_cap=100, feature_cap=6,
                       random_state=0)


@pytest.fixture(scope="module")
def serial(corpus):
    runner = ExperimentRunner(split_seed=7)
    store = ResultStore()
    for cls in PLATFORM_CLASSES:
        platform = cls(random_state=0)
        store.extend(runner.sweep(
            platform, corpus, [baseline_configuration(platform)]
        ))
    return list(store)


@pytest.fixture(scope="module")
def server():
    gateway = ServingGateway(
        [cls(random_state=0) for cls in PLATFORM_CLASSES]
    )
    http_server, thread = serve_background(gateway)
    yield http_server
    http_server.shutdown()
    thread.join()
    http_server.server_close()


@contextmanager
def _clients(server, tag):
    clients = [
        HTTPPlatformClient(server.url, cls.name,
                           client_id=f"{tag}-{cls.name}")
        for cls in PLATFORM_CLASSES
    ]
    try:
        yield clients
    finally:
        for client in clients:
            client.close()


def test_http_sweep_is_bit_identical_to_in_process(corpus, serial, server):
    runner = ExperimentRunner(split_seed=7)
    store = ResultStore()
    with _clients(server, "sweep") as clients:
        for client in clients:
            store.extend(runner.sweep(
                client, corpus, [baseline_configuration(client)]
            ))
    assert list(store) == serial


def test_study_runs_unchanged_over_http_clients(serial, server):
    scale = StudyScale(max_datasets=3, size_cap=100, feature_cap=6)
    with _clients(server, "study") as clients:
        study = MLaaSStudy(scale=scale, random_state=0, platforms=clients)
        assert list(study.run_baseline()) == serial


def test_concurrent_http_campaigns_stay_bit_identical(corpus, serial,
                                                      server):
    for iteration in range(STRESS_ITERATIONS):
        with _clients(server, f"stress{iteration}") as clients:
            store = run_campaign(
                ExperimentRunner(split_seed=7), clients, corpus,
                {client.name: [baseline_configuration(client)]
                 for client in clients},
                workers=4,
            )
        assert list(store) == serial, f"diverged on iteration {iteration}"


def test_failure_reasons_cross_the_wire_verbatim(server):
    """A degenerate training job fails identically locally and over HTTP."""
    import numpy as np

    from repro.datasets.corpus import SplitDataset

    class _NamedDataset:
        """The minimal dataset surface run_one reads when given a split."""

        name = "degenerate/single-class"

    rng = np.random.default_rng(2)
    split = SplitDataset(
        name=_NamedDataset.name,
        X_train=rng.standard_normal((20, 3)),
        X_test=rng.standard_normal((6, 3)),
        y_train=np.zeros(20, dtype=np.intp),  # one class: training fails
        y_test=np.zeros(6, dtype=np.intp),
    )
    runner = ExperimentRunner(split_seed=7)
    local = BigML(random_state=0)
    local_result = runner.run_one(
        local, _NamedDataset, baseline_configuration(local), split=split
    )
    client = HTTPPlatformClient(server.url, "bigml", client_id="fail")
    try:
        wire_result = runner.run_one(
            client, _NamedDataset, baseline_configuration(client), split=split
        )
    finally:
        client.close()
    assert local_result.status == "failed"
    assert wire_result == local_result
    assert wire_result.failure_reason == local_result.failure_reason
