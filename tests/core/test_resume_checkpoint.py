"""Tests for resumable, checkpointed campaigns (the inline executor).

Resume and checkpointing live in :func:`repro.service.run_campaign`;
``ExperimentRunner.sweep`` is the bare serial reference they must match.
"""

import pytest

from repro.core import Configuration, ExperimentRunner
from repro.core.results import ResultStore
from repro.datasets import load_dataset
from repro.platforms import Amazon
from repro.service import run_campaign


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("synthetic/linear", size_cap=150)


@pytest.fixture()
def configurations():
    return [
        Configuration.make(classifier="LR", params={"maxIter": 10}),
        Configuration.make(classifier="LR", params={"maxIter": 1000}),
        Configuration.make(classifier="LR", params={"regParam": 1.0}),
    ]


def _campaign(platform, dataset, configurations, **kwargs):
    return run_campaign(ExperimentRunner(split_seed=0), [platform],
                        [dataset], configurations, **kwargs)


def test_resume_skips_completed_measurements(dataset, configurations):
    partial = _campaign(Amazon(random_state=0), dataset, configurations[:2])
    assert len(partial) == 2

    class CountingAmazon(Amazon):
        trained = 0

        def _assemble(self, handle, X, y):
            CountingAmazon.trained += 1
            return super()._assemble(handle, X, y)

    full = _campaign(CountingAmazon(random_state=0), dataset, configurations,
                     resume_from=partial)
    assert len(full) == 3
    assert CountingAmazon.trained == 1  # only the missing config ran


def test_resume_ignores_other_platforms(dataset, configurations):
    partial = _campaign(Amazon(random_state=0), dataset, configurations[:1])
    # Pretend the partial store came from a different platform.
    foreign = ResultStore()
    for result in partial:
        foreign.add(type(result)(
            platform="someone-else",
            dataset=result.dataset,
            configuration=result.configuration,
            metrics=result.metrics,
        ))
    full = _campaign(Amazon(random_state=0), dataset, configurations[:1],
                     resume_from=foreign)
    # Foreign results are not ours; the measurement re-runs.
    assert len(full.for_platform("amazon")) == 1


def test_checkpoint_written(tmp_path, dataset, configurations):
    path = tmp_path / "checkpoint.json"
    store = _campaign(Amazon(random_state=0), dataset, configurations,
                      checkpoint_path=path, checkpoint_every=1)
    assert path.exists()
    loaded = ResultStore.load(path)
    assert len(loaded) == len(store) == 3


def test_resume_from_checkpoint_roundtrip(tmp_path, dataset, configurations):
    path = tmp_path / "checkpoint.json"
    _campaign(Amazon(random_state=0), dataset, configurations[:2],
              checkpoint_path=path)
    resumed = _campaign(Amazon(random_state=0), dataset, configurations,
                        resume_from=ResultStore.load(path))
    assert len(resumed) == 3
    scores = [r.f_score for r in resumed]
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_interrupted_sweep_resumes_to_identical_store(
        tmp_path, dataset, configurations):
    """An interrupted campaign, resumed from its checkpoint, matches the
    uninterrupted serial sweep record for record."""
    uninterrupted = ExperimentRunner(split_seed=0).sweep(
        Amazon(random_state=0), [dataset], configurations,
    )

    class CrashingAmazon(Amazon):
        """Dies with a non-platform error on the third measurement."""

        uploads = 0

        def upload_dataset(self, X, y, name="dataset"):
            type(self).uploads += 1
            if type(self).uploads == 3:
                raise RuntimeError("simulated process crash")
            return super().upload_dataset(X, y, name=name)

    path = tmp_path / "interrupted.json"
    with pytest.raises(RuntimeError, match="simulated process crash"):
        _campaign(CrashingAmazon(random_state=0), dataset, configurations,
                  checkpoint_path=path, checkpoint_every=1)
    partial = ResultStore.load(path)
    assert len(partial) == 2  # the first two measurements survived

    resumed = _campaign(Amazon(random_state=0), dataset, configurations,
                        resume_from=partial, checkpoint_path=path,
                        checkpoint_every=1)
    assert [r.to_dict() for r in resumed] == \
           [r.to_dict() for r in uninterrupted]
    # The final checkpoint also round-trips to the identical store.
    assert [r.to_dict() for r in ResultStore.load(path)] == \
           [r.to_dict() for r in uninterrupted]
