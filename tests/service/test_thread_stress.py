"""Thread-stress test for the thread executor's determinism contract.

One lucky pass proves little for concurrent code: races surface on
specific interleavings.  This test hammers the same small campaign
through the thread executor of :func:`run_campaign` with several
workers *many times* under a fixed seed and asserts every run is
bit-identical to the serial sweep — exercising the slot table, the
per-platform cap, the queue handoff, and the checkpoint writes under
genuinely different thread schedules each iteration.
"""

import pytest

from repro.core import ExperimentRunner
from repro.core.config_space import baseline_configuration
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.platforms import Amazon, BigML, Google
from repro.service import run_campaign

PLATFORM_CLASSES = [Google, Amazon, BigML]
STRESS_ITERATIONS = 12


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


def _run_campaign(corpus, workers, **kwargs):
    platforms = [cls(random_state=0) for cls in PLATFORM_CLASSES]
    store = run_campaign(
        ExperimentRunner(split_seed=7), platforms, corpus,
        {p.name: [baseline_configuration(p)] for p in platforms},
        workers=workers, **kwargs,
    )
    return list(store)


def test_repeated_concurrent_campaigns_stay_bit_identical(corpus, serial):
    for iteration in range(STRESS_ITERATIONS):
        results = _run_campaign(corpus, workers=4)
        assert results == serial, f"diverged on iteration {iteration}"


def test_stress_with_checkpointing_every_result(corpus, serial, tmp_path):
    # checkpoint_every=1 writes a checkpoint after every measurement
    # while the workers run; the final one must round-trip losslessly.
    for iteration in range(STRESS_ITERATIONS // 2):
        checkpoint = tmp_path / f"ckpt_{iteration}.json"
        store = _run_campaign(corpus, workers=4, checkpoint_path=checkpoint,
                              checkpoint_every=1)
        assert store == serial, f"diverged on iteration {iteration}"
        assert list(ResultStore.load(checkpoint)) == serial
