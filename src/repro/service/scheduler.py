"""The thread executor of :func:`~repro.service.campaign.run_campaign`.

:func:`run_threads` overlaps the *waiting* of a campaign (request
latency, rate-limit backoff) on a pool of worker threads:

* fair round-robin dispatch across platforms, so no platform starves;
* one job in flight per platform: each simulated service runs its jobs
  strictly in order, like a real job queue;
* backpressure through a dispatch queue bounded at twice the width.

Workers only measure; every ``(serial_index, result)`` pair goes back to
the consuming thread, which owns the slot table, the telemetry counts
and the checkpoint.
"""

from __future__ import annotations

import queue
import threading
from collections import deque

__all__ = ["run_threads"]

#: Bound of the dispatch queue, per worker.
_QUEUE_PER_WORKER = 2


def run_threads(jobs, measure, workers):
    """Run the jobs on ``workers`` threads, one in flight per platform.

    ``measure`` maps a job to its result; the generator yields
    ``(serial_index, result)`` pairs in completion order and re-raises a
    job's error in the consuming thread.
    """
    pending: dict[str, deque] = {}
    for job in jobs:
        pending.setdefault(job.platform_name, deque()).append(job)
    busy = dict.fromkeys(pending, False)
    tasks: queue.Queue = queue.Queue(maxsize=_QUEUE_PER_WORKER * workers)
    done: queue.Queue = queue.Queue()

    def worker() -> None:
        while True:
            job = tasks.get()
            if job is None:
                return
            try:
                done.put((job, measure(job), None))
            except Exception as exc:  # re-raised by the calling thread
                done.put((job, None, exc))

    threads = [
        threading.Thread(target=worker, daemon=True,
                         name=f"campaign-worker-{i}")
        for i in range(min(workers, len(jobs)))
    ]
    for thread in threads:
        thread.start()
    # The shutdown must run however the loop ends (a job's error, a
    # KeyboardInterrupt, the driver closing this generator): otherwise
    # the workers block on the queue forever and the process leaks them.
    try:
        cursor = 0
        for _ in jobs:
            cursor = _dispatch(pending, busy, cursor, tasks)
            job, result, error = done.get()
            if error is not None:
                raise error
            busy[job.platform_name] = False
            yield job.index, result
    finally:
        while True:
            try:
                tasks.get_nowait()
            except queue.Empty:
                break
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            thread.join()


def _dispatch(pending, busy, cursor, tasks) -> int:
    """Queue a job of every idle platform, round-robin from ``cursor``.

    Stops when no idle platform has work or the bounded queue is full;
    returns the cursor to resume from.
    """
    order = list(pending)
    while not tasks.full():
        for offset in range(len(order)):
            position = (cursor + offset) % len(order)
            name = order[position]
            if pending[name] and not busy[name]:
                break
        else:
            return cursor
        busy[name] = True
        tasks.put(pending[name].popleft())
        cursor = (position + 1) % len(order)
    return cursor
