"""One campaign driver: the serial job table, run inline, on threads or on processes.

The paper's results come from one measurement loop (§3.2: upload, train,
wait for the job, predict, score) repeated over platform × dataset ×
configuration.  :func:`run_campaign` is the one driver of that loop at
campaign scale:

1. :func:`build_campaign` enumerates the jobs in the serial
   platform → dataset → configuration order and stamps each with its
   index in that order;
2. one resume index fills the slots of jobs a previous run already
   measured (a loaded :class:`~repro.core.results.ResultStore`
   checkpoint);
3. an *executor* runs the pending jobs and hands back
   ``(serial_index, result)`` pairs in whatever order they finish;
4. the calling thread — and only it — fills each slot, counts the
   telemetry (``jobs_total``/``jobs_resumed``/``jobs_done``/
   ``jobs_failed``) and rewrites the checkpoint every
   ``checkpoint_every`` new measurements and at the end.

The store reads the slots in index order, so it is bit-identical to
:meth:`~repro.core.runner.ExperimentRunner.sweep` whatever the executor
and its width: every job's model seed derives from (platform seed,
training bytes, configuration), never from a thread, a process or the
completion order.

The executors, chosen by the ``workers``/``processes`` integers:

* ``inline`` (both 1) runs the jobs in serial order in the calling thread;
* ``threads`` (``workers > 1``, :mod:`repro.service.scheduler`)
  dispatches round-robin across platforms, one job in flight per
  platform (each simulated service runs its jobs strictly in order),
  through a queue bounded at twice the width;
* ``processes`` (``processes > 1``, :mod:`repro.service.sharding`)
  groups the pending jobs by dataset — one dataset's arrays cross the
  pickling boundary once per shard — and runs the shards on a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Each shard rebuilds
  its platforms around one shared :class:`~repro.learn.cache.FitCache`,
  whose accounting comes back as the ``fit_cache_*`` counters.

Both in-process executors drive the platforms through one table of
:class:`~repro.service.resilience.ResilientClient` wrappers, so
``workers=1`` and ``workers=4`` differ only in width.

Crashes follow one rule for every executor: when a job raises (a
programming error, a killed pool worker), the driver writes the
completed slots to the checkpoint and re-raises.  ``checkpoint_every=1``
makes a killed process lose nothing but the jobs in flight; resuming
from the checkpoint reproduces the uninterrupted store and checkpoint
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.controls import Configuration
from repro.core.results import ResultStore
from repro.core.runner import ExperimentRunner
from repro.datasets.corpus import Dataset
from repro.exceptions import ValidationError
from repro.service.clock import VirtualClock
from repro.service.resilience import ResilientClient
from repro.service.scheduler import run_threads
from repro.service.sharding import run_processes
from repro.service.telemetry import Telemetry

__all__ = ["CampaignJob", "build_campaign", "run_campaign"]


@dataclass(frozen=True)
class CampaignJob:
    """One planned measurement, pinned to its serial-order position."""

    index: int
    platform_name: str
    dataset: Dataset
    configuration: Configuration

    def key(self) -> tuple:
        """Identity used for resume matching."""
        return (self.platform_name, self.dataset.name, self.configuration)


def build_campaign(
    platforms: Sequence,
    datasets: Sequence[Dataset],
    configurations,
) -> list:
    """Enumerate jobs in exactly the serial sweep order.

    ``configurations`` is either a mapping ``platform name -> sequence of
    configurations`` (each platform sweeps its own space, as the study
    protocols do) or a single sequence applied to every platform.  The
    order is platform-major, then dataset, then configuration — the
    order of one ``sweep`` per platform.
    """
    per_platform = _configurations_by_platform(platforms, configurations)
    jobs: list = []
    for platform in platforms:
        for dataset in datasets:
            for configuration in per_platform[platform.name]:
                jobs.append(CampaignJob(
                    index=len(jobs),
                    platform_name=platform.name,
                    dataset=dataset,
                    configuration=configuration,
                ))
    return jobs


def _configurations_by_platform(platforms, configurations) -> dict:
    if isinstance(configurations, Mapping):
        resolved = {}
        for platform in platforms:
            if platform.name not in configurations:
                raise ValidationError(
                    f"no configurations supplied for platform "
                    f"{platform.name!r}"
                )
            resolved[platform.name] = list(configurations[platform.name])
        return resolved
    shared = list(configurations)
    return {platform.name: shared for platform in platforms}


def run_campaign(
    runner: ExperimentRunner,
    platforms: Sequence,
    datasets: Sequence[Dataset],
    configurations,
    *,
    workers: int = 1,
    processes: int = 1,
    resume_from: ResultStore | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 200,
    telemetry: Telemetry | None = None,
    clock=None,
    retry_policy=None,
    seed: int = 0,
) -> ResultStore:
    """Run a campaign; returns the results in serial sweep order.

    Parameters
    ----------
    workers, processes : int
        The executor: ``processes > 1`` runs dataset shards on that many
        processes, else ``workers > 1`` runs that many threads, else the
        jobs run inline.  At most one of the two may exceed 1.
    resume_from : ResultStore or None
        Results matching a planned job fill its slot without
        re-measuring.
    checkpoint_path : path-like or None
        Rewritten with the completed slots every ``checkpoint_every``
        new measurements, when a job raises, and at the end.
    telemetry : Telemetry or None
        Metrics sink; pass one to read the counters afterwards.
    clock, retry_policy, seed
        Backoff time source, bounds and jitter seed of the in-process
        executors' :class:`ResilientClient` table (a fresh
        :class:`VirtualClock` by default; share the platforms' clock so
        waits roll their quota windows forward).
    """
    for label, value in (("workers", workers), ("processes", processes),
                         ("checkpoint_every", checkpoint_every)):
        if value < 1:
            raise ValidationError(f"{label} must be >= 1, got {value}")
    if workers > 1 and processes > 1:
        raise ValidationError(
            "choose one campaign executor: thread workers "
            f"(workers={workers}) or process shards "
            f"(processes={processes}), not both"
        )
    telemetry = telemetry if telemetry is not None else Telemetry()
    platforms = list(platforms)
    datasets = list(datasets)
    jobs = build_campaign(platforms, datasets, configurations)
    slots: list = [None] * len(jobs)
    resumable = _resume_index(resume_from, {p.name for p in platforms})
    pending = []
    for job in jobs:
        previous = resumable.pop(job.key(), None)
        if previous is None:
            pending.append(job)
        else:
            slots[job.index] = previous
    telemetry.increment("jobs_total", len(jobs))
    telemetry.increment("jobs_resumed", len(jobs) - len(pending))

    if pending:
        kind, width = _executor(workers, processes)
        if kind == "processes":
            results = run_processes(pending, runner, platforms, telemetry,
                                    width)
        else:
            clock = clock if clock is not None else VirtualClock()
            clients = {
                platform.name: ResilientClient(
                    platform, policy=retry_policy, clock=clock,
                    telemetry=telemetry, seed=seed,
                )
                for platform in platforms
            }
            splits = {dataset.name: runner.split(dataset)
                      for dataset in datasets}

            def measure(job):
                return runner.run_one(
                    clients[job.platform_name], job.dataset,
                    job.configuration, splits[job.dataset.name],
                )

            results = (run_threads(pending, measure, width)
                       if kind == "threads" else _inline(pending, measure))
        _fill(slots, results, telemetry, checkpoint_path, checkpoint_every)

    store = ResultStore(result for result in slots if result is not None)
    telemetry.increment("jobs_failed", sum(1 for r in store if not r.ok))
    if pending and checkpoint_path is not None:
        store.save(checkpoint_path)
    return store


def _executor(workers: int, processes: int) -> tuple:
    """The executor kind the two integers choose, and its width."""
    if processes > 1:
        return "processes", processes
    if workers > 1:
        return "threads", workers
    return "inline", 1


def _fill(slots, results, telemetry, checkpoint_path, checkpoint_every) -> None:
    """Fill slots from ``(index, result)`` pairs; checkpoint as they land."""
    new = 0
    try:
        for index, result in results:
            slots[index] = result
            new += 1
            telemetry.increment("jobs_done")
            if checkpoint_path is not None and new % checkpoint_every == 0:
                _checkpoint(slots, checkpoint_path)
    except BaseException:
        if checkpoint_path is not None and new:
            _checkpoint(slots, checkpoint_path)
        raise
    finally:
        results.close()


def _checkpoint(slots, checkpoint_path) -> None:
    """Save the completed slots, in serial order.

    :meth:`ResultStore.save` writes via ``*.tmp`` + ``os.replace``: a
    kill at any instant leaves the previous complete checkpoint or this
    one, never a truncated file.
    """
    ResultStore(
        result for result in slots if result is not None
    ).save(checkpoint_path)


def _resume_index(resume_from, platform_names) -> dict:
    """Map job key -> prior result for resumable measurements."""
    index: dict = {}
    if resume_from is None:
        return index
    for result in resume_from:
        if result.platform not in platform_names:
            continue
        key = (result.platform, result.dataset, result.configuration)
        index.setdefault(key, result)
    return index


def _inline(jobs, measure):
    """Run the jobs in serial order in the calling thread."""
    for job in jobs:
        yield job.index, measure(job)
