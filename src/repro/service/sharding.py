"""The process executor of :func:`~repro.service.campaign.run_campaign`.

Threads overlap waiting but not compute: the paper's headline grid —
every dataset × every platform × the per-platform configuration space
(Table 3 / Fig. 4) — is CPU-bound training, and the GIL serializes it.
:func:`run_processes` fans it out over a
:class:`~concurrent.futures.ProcessPoolExecutor` instead:

* the pending jobs are grouped into dataset-keyed shards, so one
  dataset's arrays cross the pickling boundary once per shard, not once
  per job;
* each shard runs :func:`_run_shard`, a module-level worker taking one
  picklable :class:`_ShardTask` (no closures, locks or bound methods
  cross the boundary);
* inside a shard, every platform is rebuilt from its
  :class:`_PlatformSpec` around one shared
  :class:`~repro.learn.cache.FitCache`, whose accounting comes back as
  the ``fit_cache_*`` counters.

Results go back as ``(serial_index, result)`` pairs; the driver fills
its slot table with them, so the store is bit-identical to the serial
sweep whatever the process count or completion order.
"""

from __future__ import annotations

import importlib
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.core.runner import ExperimentRunner
from repro.datasets.corpus import Dataset
from repro.exceptions import ValidationError
from repro.learn.cache import FitCache

__all__ = ["DEFERRED_IMPORTS", "run_processes"]

#: Modules imported inside the functions that call them (the scipy
#: statistics and the L-BFGS-B solver), so a process that never calls
#: them never pays for them.  The process executor imports them once
#: before forking, so workers inherit them instead of importing them
#: again in every pool.
DEFERRED_IMPORTS = ("scipy.optimize", "scipy.stats")

#: Shards submitted but not finished, per process: a 119-dataset campaign
#: does not serialize its whole corpus into the pool's call queue.
_SHARDS_PER_PROCESS = 2


@dataclass(frozen=True)
class _PlatformSpec:
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
class _ShardTask:
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
class _ShardResult:
    """What a shard worker ships back: results plus cache accounting."""

    shard_id: int
    dataset: str
    results: tuple          # ((serial_index, ExperimentResult), ...)
    cache_stats: dict       # FitCache.stats() of the shard's shared cache


def _run_shard(task: _ShardTask) -> _ShardResult:
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
    return _ShardResult(
        shard_id=task.shard_id,
        dataset=task.dataset.name,
        results=tuple(results),
        cache_stats=cache.stats(),
    )


def _platform_spec(platform) -> _PlatformSpec:
    """Validate and capture how to rebuild a platform in a worker.

    The process executor re-imports the platform's class by reference,
    so the class must live at module level; an injected clock cannot
    cross the boundary (the rebuilt platform would silently fall back to
    wall time, desynchronizing its rate-limit windows from the parent's).
    """
    cls = type(platform)
    module = sys.modules.get(cls.__module__)
    if ("." in cls.__qualname__ or module is None
            or getattr(module, cls.__qualname__, None) is not cls):
        raise ValidationError(
            f"platform class {cls.__qualname__!r} is not module-level "
            "importable; the process executor rebuilds platforms in "
            "worker processes and can only ship classes picklable by "
            "reference"
        )
    if getattr(platform, "_clock", None) not in (None, time.monotonic):
        raise ValidationError(
            f"platform {platform.name!r} has an injected clock; clocks "
            "cannot cross the process boundary — run process-sharded "
            "campaigns with the default monotonic clock"
        )
    return _PlatformSpec(
        name=platform.name,
        cls=cls,
        random_state=platform.random_state,
        synchronous=platform.synchronous,
        rate_limit_per_minute=platform.rate_limit_per_minute,
    )


def run_processes(jobs, runner, platforms, telemetry, processes):
    """Run one dataset shard per task on a pool of ``processes`` workers.

    Yields ``(serial_index, result)`` pairs shard by shard as shards
    finish, counts ``shards_*`` and ``fit_cache_*`` into ``telemetry``
    and re-raises the first failed shard's error (a killed worker
    surfaces as ``BrokenProcessPool``).
    """
    specs = tuple(_platform_spec(platform) for platform in platforms)
    by_dataset: dict[str, list] = {}
    for job in jobs:
        by_dataset.setdefault(job.dataset.name, []).append(job)
    tasks = [
        _ShardTask(
            shard_id=shard_id,
            dataset=group[0].dataset,
            entries=tuple((job.index, job.platform_name, job.configuration)
                          for job in group),
            platforms=specs,
            test_size=runner.test_size,
            split_seed=runner.split_seed,
        )
        for shard_id, group in enumerate(by_dataset.values())
    ]
    telemetry.increment("shards_total", len(tasks))
    for name in DEFERRED_IMPORTS:
        importlib.import_module(name)
    width = min(processes, len(tasks))
    backlog = list(reversed(tasks))   # pop() submits in serial order
    pool = ProcessPoolExecutor(max_workers=width)
    try:
        futures: dict = {}
        while backlog or futures:
            while backlog and len(futures) < width * _SHARDS_PER_PROCESS:
                task = backlog.pop()
                futures[pool.submit(_run_shard, task)] = task.shard_id
            finished, _ = wait(futures, return_when=FIRST_COMPLETED)
            errors = []
            for future in finished:
                del futures[future]
                if future.exception() is not None:
                    errors.append(future.exception())
                    continue
                shard = future.result()
                telemetry.increment("shards_done")
                for key, value in sorted(shard.cache_stats.items()):
                    telemetry.increment(f"fit_cache_{key}", value)
                yield from shard.results
            if errors:
                telemetry.increment("shards_failed", len(errors))
                raise errors[0]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
