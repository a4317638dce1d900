"""The campaign driver's equality gate and its crash rule.

``ExperimentRunner.sweep`` is the reference.  Every executor — inline,
threads at widths 1 and 4, processes at widths 1 and 2 — must reproduce
its store and its saved checkpoint bytes, on the baseline protocol and
a per-control protocol over all seven platforms, and on asynchronous
(``synchronous=False``) platforms.  Each executor is also killed for
real mid-campaign (SIGKILL, not an exception) and resumed from its
checkpoint, which must again give the serial store and bytes.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ExperimentRunner, MLaaSStudy, StudyScale
from repro.core.config_space import baseline_configuration
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.platforms import ALL_PLATFORMS, Amazon, BigML, Google
from repro.service import Telemetry, campaign, run_campaign

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = {"max_datasets": 3, "size_cap": 100, "feature_cap": 6,
          "random_state": 0}
EXECUTORS = [("inline", 1), ("threads", 1), ("threads", 4),
             ("processes", 1), ("processes", 2)]
KILLED_PLATFORMS = [Google, Amazon, BigML]


class KillOnUpload(Amazon):
    """Amazon that SIGKILLs its own process as it uploads ``kill_on``.

    Module-level, so the process executor can rebuild it in a worker.
    """

    kill_on = None

    def upload_dataset(self, X, y, name="dataset"):
        if name == self.kill_on:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().upload_dataset(X, y, name=name)


#: Runs a campaign in a fresh interpreter until KillOnUpload kills it.
KILL_SCRIPT = """
import sys
from repro.core import ExperimentRunner
from repro.core.config_space import baseline_configuration
from repro.datasets import load_corpus
from repro.platforms import BigML, Google
from repro.service import run_campaign
from tests.service.test_campaign import CORPUS, KillOnUpload

corpus = load_corpus(**CORPUS)
KillOnUpload.kill_on = corpus[1].name
platforms = [Google(random_state=0), KillOnUpload(random_state=0),
             BigML(random_state=0)]
run_campaign(
    ExperimentRunner(split_seed=7), platforms, corpus,
    {p.name: [baseline_configuration(p)] for p in platforms},
    workers=int(sys.argv[1]), checkpoint_path=sys.argv[2],
    checkpoint_every=1,
)
"""


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(**CORPUS)


def _plan(protocol, synchronous):
    platforms = [cls(random_state=0, synchronous=synchronous)
                 for cls in ALL_PLATFORMS]
    study = MLaaSStudy(scale=StudyScale.tiny(), platforms=platforms)
    return {platform.name: configurations for platform, configurations
            in study.protocol_plan(protocol)}, platforms


def _serial_bytes(platforms, corpus, configurations, path):
    runner = ExperimentRunner(split_seed=7)
    store = ResultStore()
    for platform in platforms:
        if platform.name in configurations:
            store.extend(runner.sweep(platform, corpus,
                                      configurations[platform.name]))
    store.save(path)
    return store, path.read_bytes()


@pytest.mark.parametrize("protocol,synchronous", [
    ("baseline", True), ("CLF", True), ("baseline", False),
])
def test_every_executor_reproduces_the_serial_sweep(
        protocol, synchronous, corpus, tmp_path, monkeypatch):
    configurations, platforms = _plan(protocol, synchronous)
    serial, serial_bytes = _serial_bytes(platforms, corpus, configurations,
                                         tmp_path / "serial.json")
    if protocol == "baseline":
        # Asynchronous platforms included: every job is polled to done.
        assert all(result.ok for result in serial)
    for kind, width in EXECUTORS:
        monkeypatch.setattr(campaign, "_executor",
                            lambda workers, processes, pick=(kind, width): pick)
        fresh = [type(p)(random_state=0, synchronous=synchronous)
                 for p in platforms if p.name in configurations]
        checkpoint = tmp_path / f"{kind}-{width}.json"
        telemetry = Telemetry()
        store = run_campaign(
            ExperimentRunner(split_seed=7), fresh, corpus, configurations,
            checkpoint_path=checkpoint, telemetry=telemetry,
        )
        label = f"{kind}({width})"
        assert list(store) == list(serial), label
        assert checkpoint.read_bytes() == serial_bytes, label
        assert telemetry.counter_value("jobs_done") == len(serial), label


@pytest.mark.parametrize("workers", [1, 4], ids=["inline", "threads"])
def test_killed_in_process_campaign_resumes_to_the_serial_store(
        workers, corpus, tmp_path):
    platforms = [cls(random_state=0) for cls in KILLED_PLATFORMS]
    configurations = {p.name: [baseline_configuration(p)] for p in platforms}
    serial, serial_bytes = _serial_bytes(platforms, corpus, configurations,
                                         tmp_path / "serial.json")
    checkpoint = tmp_path / "killed.json"
    proc = subprocess.run(
        [sys.executable, "-c", KILL_SCRIPT, str(workers), str(checkpoint)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": f"{REPO_ROOT / 'src'}:{REPO_ROOT}",
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    recovered = ResultStore.load(checkpoint)
    assert 0 < len(recovered) < len(serial)

    telemetry = Telemetry()
    resumed = run_campaign(
        ExperimentRunner(split_seed=7),
        [cls(random_state=0) for cls in KILLED_PLATFORMS], corpus,
        configurations, workers=workers, resume_from=recovered,
        checkpoint_path=checkpoint, telemetry=telemetry,
    )
    assert list(resumed) == list(serial)
    assert checkpoint.read_bytes() == serial_bytes
    assert telemetry.counter_value("jobs_resumed") == len(recovered)
