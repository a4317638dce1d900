"""Process-sharded campaign engine: full-corpus grids past the GIL.

The thread-pooled :class:`~repro.service.scheduler.CampaignScheduler`
overlaps *waiting* (request latency, rate-limit backoff) but cannot
overlap *compute*: the paper's headline grid — every dataset × every
platform × the per-platform configuration space (Table 3 / Fig. 4) — is
CPU-bound training, and the GIL serializes it.  This module fans that
grid out over a :class:`concurrent.futures.ProcessPoolExecutor` instead:

* the job table is partitioned into **dataset-keyed shards**
  (:class:`~repro.service.dag.CampaignDAG`) — one dataset's arrays ship
  across the pickling boundary once, not once per job;
* each shard runs :func:`run_shard`, a **module-level** worker function
  taking one picklable :class:`ShardTask` (the boundary the race tool's
  C204 rule models: no closures, locks, or bound methods cross);
* inside a shard, every platform is constructed fresh and shares one
  externally-owned :class:`~repro.learn.cache.FitCache`, so identical
  pipeline-stage fits across candidates (and across platforms) are
  computed once per shard; the per-shard hit/miss stats come back with
  the results and merge in serial shard order
  (:func:`merge_cache_stats`);
* results are stitched into **serial-index slots**
  (:func:`stitch_results`), so the merged
  :class:`~repro.core.results.ResultStore` is bit-for-bit identical to
  the serial sweep regardless of process count or completion order.

Determinism holds for the same reason as the thread scheduler's
contract, one level deeper: every job's model seed is derived from
(platform seed, training bytes, configuration) — never from process
identity, shard order, or wall-clock — so only *ordering* needs pinning,
and the slot table pins it.

Interrupted campaigns resume from the engine's checkpoints: after each
completed shard the completed slots are rewritten atomically (the
``*.tmp`` + ``os.replace`` discipline of :meth:`ResultStore.save`), and
a resumed run marks checkpointed jobs done in the DAG and re-runs only
the remainder.
"""

from __future__ import annotations

import importlib
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.results import ResultStore
from repro.core.runner import ExperimentRunner
from repro.datasets.corpus import Dataset
from repro.exceptions import ValidationError
from repro.learn.cache import FitCache
from repro.service.dag import CampaignDAG
from repro.service.scheduler import _resume_index, build_campaign
from repro.service.telemetry import Telemetry

__all__ = [
    "DEFERRED_IMPORTS",
    "PlatformSpec",
    "ShardTask",
    "ShardResult",
    "ShardedCampaign",
    "merge_cache_stats",
    "run_shard",
    "stitch_results",
]

#: Modules imported inside the functions that call them (the scipy
#: statistics and the L-BFGS-B solver), so a process that never calls
#: them never pays for them.  The process executor imports them once
#: before forking, so workers inherit them instead of importing them
#: again in every pool.
DEFERRED_IMPORTS = ("scipy.optimize", "scipy.stats")


@dataclass(frozen=True)
class PlatformSpec:
    """Everything a worker process needs to rebuild one platform.

    The platform *instance* never crosses the process boundary (it owns
    a lock-bearing FitCache and possibly an injected clock); its class —
    picklable by reference — and constructor arguments do.
    """

    name: str
    cls: type
    random_state: int
    synchronous: bool
    rate_limit_per_minute: int | None


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, fully picklable.

    ``entries`` holds ``(serial_index, platform_name, configuration)``
    triples in ascending serial order; the dataset rides along once for
    the whole shard.
    """

    shard_id: int
    dataset: Dataset
    entries: tuple
    platforms: tuple
    test_size: float
    split_seed: int


@dataclass(frozen=True)
class ShardResult:
    """What a shard worker ships back: results plus cache accounting."""

    shard_id: int
    dataset: str
    results: tuple          # ((serial_index, ExperimentResult), ...)
    cache_stats: dict       # FitCache.stats() of the shard's shared cache


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard in a worker process (module-level: picklable).

    Platforms are constructed on demand from their specs, all sharing
    one shard-wide :class:`FitCache`; the runner re-derives the same
    70/30 split the serial sweep uses from the shipped ``split_seed``.
    """
    cache = FitCache()
    specs = {spec.name: spec for spec in task.platforms}
    platforms: dict = {}
    runner = ExperimentRunner(test_size=task.test_size,
                              split_seed=task.split_seed)
    split = runner.split(task.dataset)
    results = []
    for index, platform_name, configuration in task.entries:
        platform = platforms.get(platform_name)
        if platform is None:
            spec = specs[platform_name]
            platform = spec.cls(
                random_state=spec.random_state,
                synchronous=spec.synchronous,
                rate_limit_per_minute=spec.rate_limit_per_minute,
                fit_cache=cache,
            )
            platforms[platform_name] = platform
        results.append((
            index,
            runner.run_one(platform, task.dataset, configuration, split),
        ))
    return ShardResult(
        shard_id=task.shard_id,
        dataset=task.dataset.name,
        results=tuple(results),
        cache_stats=cache.stats(),
    )


def stitch_results(slots: list, shard_results: Iterable[ShardResult]) -> list:
    """Fill serial-index slots from shard results, in any arrival order.

    Each result carries the index it would have in the serial
    platform → dataset → configuration loop, so writing by index makes
    the filled table — and therefore the merged store — independent of
    shard completion order.
    """
    for shard_result in shard_results:
        for index, result in shard_result.results:
            slots[index] = result
    return slots


def merge_cache_stats(stats_by_shard: Mapping[int, dict]) -> dict:
    """Combine per-shard FitCache stats in serial shard order.

    Addition is commutative, but iterating shards by id anyway makes the
    merge auditable: the same campaign always reports its totals from
    the same traversal, whatever order the shards finished in.
    """
    merged = {"entries": 0, "hits": 0, "misses": 0}
    for shard_id in sorted(stats_by_shard):
        stats = stats_by_shard[shard_id]
        for key in merged:
            merged[key] += int(stats[key])
    return merged


def _platform_spec(platform) -> PlatformSpec:
    """Validate and capture how to rebuild a platform in a worker.

    Process sharding re-imports the platform's class by reference, so
    the class must live at module level; an injected clock cannot cross
    the boundary (the rebuilt platform would silently fall back to wall
    time, desynchronizing its rate-limit windows from the parent's).
    """
    cls = type(platform)
    module = sys.modules.get(cls.__module__)
    if ("." in cls.__qualname__ or module is None
            or getattr(module, cls.__qualname__, None) is not cls):
        raise ValidationError(
            f"platform class {cls.__qualname__!r} is not module-level "
            "importable; process-sharded campaigns rebuild platforms in "
            "worker processes and can only ship classes picklable by "
            "reference"
        )
    if getattr(platform, "_clock", None) not in (None, time.monotonic):
        raise ValidationError(
            f"platform {platform.name!r} has an injected clock; clocks "
            "cannot cross the process boundary — run process-sharded "
            "campaigns with the default monotonic clock"
        )
    return PlatformSpec(
        name=platform.name,
        cls=cls,
        random_state=platform.random_state,
        synchronous=platform.synchronous,
        rate_limit_per_minute=platform.rate_limit_per_minute,
    )


class ShardedCampaign:
    """Run a measurement campaign across a process pool, deterministically.

    Parameters
    ----------
    processes : int
        Worker-process count.  ``processes=1`` still runs through the
        pool (one worker), exercising the identical code path.
    telemetry : Telemetry or None
        Metrics sink (a fresh one by default; exposed as ``.telemetry``).
    max_inflight_per_worker : int
        Bound on queued-but-unfinished shard submissions per worker, so
        a 119-dataset campaign does not serialize its whole corpus into
        the executor's call queue up front.
    """

    def __init__(
        self,
        processes: int = 4,
        telemetry: Telemetry | None = None,
        max_inflight_per_worker: int = 2,
    ):
        if processes < 1:
            raise ValidationError(
                f"processes must be >= 1, got {processes}"
            )
        if max_inflight_per_worker < 1:
            raise ValidationError(
                f"max_inflight_per_worker must be >= 1, "
                f"got {max_inflight_per_worker}"
            )
        self.processes = int(processes)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.max_inflight_per_worker = int(max_inflight_per_worker)
        #: Merged FitCache accounting of the most recent run.
        self.fit_cache_stats: dict = merge_cache_stats({})
        #: The most recent run's DAG (state summary for inspection).
        self.dag: CampaignDAG | None = None

    def run(
        self,
        runner: ExperimentRunner,
        platforms: Sequence,
        datasets: Sequence[Dataset],
        configurations,
        resume_from: ResultStore | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        max_shards: int | None = None,
    ) -> ResultStore:
        """Execute the campaign; returns results in serial sweep order.

        ``resume_from`` fills matching slots without re-measuring (the
        checkpoint is the persisted DAG state); ``checkpoint_path`` is
        atomically rewritten every ``checkpoint_every`` completed shards
        and at the end.  ``max_shards`` stops dispatch after that many
        shards (serial shard order) — a budgeted run whose checkpoint a
        later invocation resumes, and the unit tests' stand-in for a
        mid-campaign kill.
        """
        platforms = list(platforms)
        datasets = list(datasets)
        specs = tuple(_platform_spec(platform) for platform in platforms)
        jobs = build_campaign(platforms, datasets, configurations)
        dag = CampaignDAG.from_jobs(jobs)
        self.dag = dag
        datasets_by_name = {dataset.name: dataset for dataset in datasets}

        slots: list = [None] * len(jobs)
        resumable = _resume_index(resume_from, {p.name for p in platforms})
        recovered = []
        for job in jobs:
            previous = resumable.pop(job.key(), None)
            if previous is not None:
                slots[job.index] = previous
                recovered.append(job.index)
        resumed = dag.apply_resume(recovered)
        self.telemetry.increment("jobs_total", len(jobs))
        self.telemetry.increment("jobs_resumed", resumed)
        self.telemetry.increment("shards_total", len(dag.shards))

        tasks = [
            ShardTask(
                shard_id=shard.shard_id,
                dataset=datasets_by_name[shard.dataset],
                entries=tuple(
                    (index, jobs[index].platform_name,
                     jobs[index].configuration)
                    for index in dag.pending_jobs(shard.shard_id)
                ),
                platforms=specs,
                test_size=runner.test_size,
                split_seed=runner.split_seed,
            )
            for shard in dag.pending_shards()
        ]
        if max_shards is not None:
            tasks = tasks[:max(0, max_shards)]

        errors: list = []
        if tasks:
            self._execute(tasks, dag, slots, checkpoint_path,
                          checkpoint_every, errors)

        self.telemetry.increment(
            "jobs_failed",
            sum(1 for r in slots if r is not None and not r.ok),
        )
        store = ResultStore(result for result in slots if result is not None)
        if checkpoint_path is not None and tasks:
            store.save(checkpoint_path)
        if errors:
            raise errors[0]
        return store

    # -- process pool ------------------------------------------------------

    def _execute(self, tasks, dag, slots, checkpoint_path,
                 checkpoint_every, errors) -> None:
        """Fan shards out over the pool; stitch and checkpoint as they land."""
        max_workers = max(1, min(self.processes, len(tasks)))
        inflight_cap = max_workers * self.max_inflight_per_worker
        cache_stats: dict[int, dict] = {}
        queue = list(reversed(tasks))   # pop() dispatches in serial order
        completed = 0
        for name in DEFERRED_IMPORTS:
            importlib.import_module(name)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures: dict = {}
            while queue or futures:
                while queue and len(futures) < inflight_cap:
                    task = queue.pop()
                    dag.mark_shard_running(task.shard_id)
                    futures[pool.submit(run_shard, task)] = task.shard_id
                finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    shard_id = futures.pop(future)
                    error = future.exception()
                    if error is not None:
                        dag.mark_shard_failed(shard_id)
                        self.telemetry.increment("shards_failed")
                        errors.append(error)
                        continue
                    shard_result = future.result()
                    stitch_results(slots, [shard_result])
                    for index, _ in shard_result.results:
                        dag.mark_job_done(index)
                    cache_stats[shard_id] = shard_result.cache_stats
                    self.telemetry.increment("shards_done")
                    completed += 1
                    if (checkpoint_path is not None
                            and completed % checkpoint_every == 0):
                        _checkpoint_completed(slots, checkpoint_path)
        self.fit_cache_stats = merge_cache_stats(cache_stats)
        for key, value in sorted(self.fit_cache_stats.items()):
            self.telemetry.increment(f"fit_cache_{key}", value)


def _checkpoint_completed(slots, checkpoint_path) -> None:
    """Atomically checkpoint the completed slots, in serial order.

    :meth:`ResultStore.save` writes via ``*.tmp`` + ``os.replace``: a
    kill at any instant leaves the previous complete checkpoint or this
    one, never a truncated file.
    """
    ResultStore(
        result for result in slots if result is not None
    ).save(checkpoint_path)
