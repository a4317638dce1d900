"""Host-speed probe: a small fixed kernel timed all through a timed phase.

The benchmark's hosts are shared, and their CPU speed drifts in phases
that last minutes, by up to 2.5x between phases and partly per core
(NOTES.md, finding 7), which no run length averages out.  The CPU-bound
figures of ``campaign`` and ``check`` are therefore scaled to the
reference host: each timed unit is divided by how much slower than on
the reference host a fixed kernel ran, on the same cores, while that
unit ran.

:class:`Probe` starts one helper process per processor, pinned to it,
from :meth:`Probe.start` to :meth:`Probe.stop`.  A helper runs the
kernel, a plain-interpreter loop of 5-20 ms CPU on a tiny working set,
then waits :data:`IDLE_RATIO` times as long, so it takes a tenth of its
core and a unit of a few seconds is scaled by dozens of samples taken
during it.  (A few kernel runs between the units were too few and too
far from them: their median moved by 12% between runs in one host
phase.)  The kernel is timed in CPU time, which leaves out any wait for
a processor.  The helpers import no ``repro`` code, so no program change
can move the kernel, and their memory is not the workload's.  A program
change that makes a unit 20% slower moves the scaled figure by 20%,
whatever phase the host is in.

Run as a script (``hostspeed.py CPU``), this module is the helper: it
times the kernel on processor CPU until its stdin closes, then prints
every sample, ``[monotonic time, CPU seconds]``, as one JSON list.
"""

from __future__ import annotations

import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time

__all__ = ["IDLE_RATIO", "MIN_SAMPLES", "REFERENCE_S", "Probe"]

#: Median CPU seconds of one kernel run on the reference host (2-vCPU
#: Intel Xeon, Python 3.11.7), in the host phase of NOTES.md's measured
#: spread.
REFERENCE_S = 0.0087
#: A helper waits this many times its last kernel run before the next,
#: so it takes a tenth of its core whatever the host's speed.
IDLE_RATIO = 9
#: Fewest samples a timed unit is scaled by; a shorter unit takes the
#: samples nearest to it.
MIN_SAMPLES = 5


def _kernel() -> list:
    """One kernel run; returns ``[monotonic time, CPU seconds]``.

    CPU time, not wall time: time the kernel waits for a processor is
    not the host's speed.
    """
    at = time.monotonic()
    started = time.process_time()
    total = 0
    for i in range(100_000):
        total += i * i
    return [at, time.process_time() - started]


class Probe:
    """Samples the kernel on each given processor while a timed phase runs.

    One helper process per processor, pinned to it.  A unit is scaled by
    the mean slowdown of those processors while it ran: the one core a
    single-threaded workload is pinned to, or every core a pool uses.
    """

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self._procs = []
        self.samples = {}

    def start(self) -> None:
        for cpu in self.cpus:
            self._procs.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            ))

    def stop(self) -> None:
        """End the helpers, wait for them and collect their samples."""
        procs, self._procs = self._procs, []
        for cpu, proc in zip(self.cpus, procs):
            try:
                output, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                _kill(procs)
                raise RuntimeError("host-speed helper did not stop") from None
            if proc.returncode != 0 or not output.strip():
                _kill(procs)
                raise RuntimeError(f"host-speed helper failed ({proc.returncode})")
            self.samples[cpu] = [tuple(sample) for sample in json.loads(output)]

    @property
    def kernel_s(self) -> dict:
        return {cpu: [seconds for _, seconds in samples]
                for cpu, samples in self.samples.items()}

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference host the probed
        processors ran between two ``time.monotonic()`` readings."""
        return statistics.fmean(_median_between(samples, start, end)
                                for samples in self.samples.values()) / REFERENCE_S

    def scale(self, start: float, end: float) -> float:
        """Seconds between two ``time.monotonic()`` readings, in
        reference seconds."""
        return (end - start) / self.slowdown(start, end)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.stop()
        else:
            _kill(self._procs)
            self._procs = []


def _kill(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def _median_between(samples: list, start: float, end: float) -> float:
    if len(samples) < MIN_SAMPLES:
        raise RuntimeError(f"host-speed probe took {len(samples)} samples")
    inside = [seconds for at, seconds in samples if start <= at <= end]
    if len(inside) < MIN_SAMPLES:
        # A short unit: the samples nearest to it in time.
        middle = (start + end) / 2.0
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [seconds for _, seconds in nearest[:MIN_SAMPLES]]
    return statistics.median(inside)


def _serve(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    gc.disable()
    samples = [_kernel()]        # warm-up, dropped below
    while True:
        pause = IDLE_RATIO * samples[-1][1]
        readable, _, _ = select.select([sys.stdin], [], [], pause)
        if readable:
            break                # stdin closed (or written): stop
        samples.append(_kernel())
    print(json.dumps(samples[1:]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_serve(int(sys.argv[1])))
