"""Checkout layout, child-process environment, host record and RSS probes.

No ``repro`` import here: ``run.py`` uses this module before it knows
whether the checkout holds the program at all.
"""

from __future__ import annotations

import http.client
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "BENCH_DIR",
    "HASH_SEED",
    "NPROC",
    "ONE_BLAS_THREAD",
    "WORK_DIR",
    "child_env",
    "host_record",
    "source_root",
    "spawn_server",
    "stop_process",
    "vm_hwm_mb",
]

BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for extracted inputs, stores and traces (git-ignored).
WORK_DIR = BENCH_DIR / "_work"
#: Fixed hash seed for every benchmark child: set/dict iteration order of
#: str keys must not vary between runs.
HASH_SEED = "0"
#: The sizing target of every workload: one client process with at most
#: this many threads, connections or pool workers.
NPROC = 2


def source_root() -> Path:
    """The checkout's ``src`` directory; raises when the program is absent."""
    src = BENCH_DIR.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no repro package under {src}; run from a full checkout"
        )
    return src


#: Caps the BLAS and OpenMP thread pools at one thread per process.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def child_env(one_blas_thread: bool = False) -> dict:
    """Environment of a benchmark child: the caller's, plus a fixed hash
    seed and the checkout's ``src`` on the path; with ``one_blas_thread``
    also :data:`ONE_BLAS_THREAD` (the campaign's, NOTES.md finding 2)."""
    env = dict(os.environ)
    if one_blas_thread:
        env.update(ONE_BLAS_THREAD)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(source_root())
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown"
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return match.group(1).strip() if match else "unknown"


def host_record() -> dict:
    """Host and environment facts stored with every run."""
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "loadavg": list(os.getloadavg()),
    }
    for package in ("numpy", "scipy"):
        try:
            record[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            record[package] = "missing"
    return record


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s*(\d+)\s*kB", text, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return int(match.group(1)) / 1024.0


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def _healthy(host: str, port: int) -> bool:
    # http.client, not urllib: urllib would honour proxy variables.
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        connection.request("GET", "/health")
        reply = connection.getresponse()
        return reply.status == 200 and json.loads(reply.read())["status"] == "ok"
    except (ConnectionError, http.client.HTTPException, OSError):
        return False
    finally:
        connection.close()


def spawn_server(seed: int, timeout: float = 60.0):
    """Start ``repro serve`` (all platforms) and wait for ``/health`` 200.

    Returns ``(process, base_url, seconds)`` where ``seconds`` runs from
    the spawn to the first healthy answer: interpreter start, imports,
    platform construction and bind are all inside it.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--seed", str(seed)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r" at (http://\S+)", banner)
        if match is None:
            raise RuntimeError(f"repro serve printed no address: {banner!r}")
        url = match.group(1)
        host, port = url[len("http://"):].rsplit(":", 1)
        deadline = started + timeout
        while not _healthy(host, int(port)):
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.002)
        return proc, url, time.perf_counter() - started
    except BaseException:
        stop_process(proc)
        raise
