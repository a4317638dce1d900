"""Repository benchmark: ``campaign``, ``serve`` and ``check`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  The line before it records
the host.  ``--smoke`` shrinks every workload to a seconds-long check
that the benchmark itself works.

Per run: one untimed warm-up set-up (it also compiles bytecode in a new
checkout), ``PROBES`` timed set-ups whose median is ``setup_s``, then
the workload itself in a fresh interpreter with a fixed hash seed.  A
run whose correctness gate fails prints ``correct: false`` without any
metric and exits 1.  See NOTES.md for what each workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

import benchstats
import hostenv
from metrics import END_TO_END, PER_LAYER, WORKLOADS

PROBES = 3
#: Hard limit for one invocation, below the 180 s a run may take.
DEADLINE_S = 170.0


def _worker_cmd(args, role: str) -> list:
    cmd = [sys.executable, str(hostenv.BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--role", role,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + (["--smoke"] if args.smoke else [])


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_child(cmd: list, deadline: float, env: dict):
    """Run a worker to completion; returns (seconds to READY, RESULT dict).

    The worker leads its own process group (with the server or pool it
    starts); a watchdog kills the whole group at the invocation deadline,
    so a hung child ends the run instead of outliving it.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - started), _kill_group, (proc,))
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        hostenv.stop_process(proc)
        _kill_group(proc)
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code}: {' '.join(cmd)}")
    return ready, result


def _env(args) -> dict:
    # The campaign's shard workers get one BLAS thread each (NOTES.md,
    # finding 2); its traced run measures what the default costs.
    return hostenv.child_env(one_blas_thread=args.workload == "campaign")


def _blas_oversubscription(args, deadline: float, result: dict) -> float:
    """The campaign's BLAS-heavy plans with the default thread pools,
    as a multiple of the same plans with one BLAS thread per worker."""
    _, default = _run_child(_worker_cmd(args, "blas"), deadline,
                            hostenv.child_env())
    return default["blas_plans_s"] / result["notes"]["blas_plans_s"]


def _setup_probe(args, deadline: float) -> float:
    if args.workload == "serve":
        proc, _, seconds = hostenv.spawn_server(args.seed)
        hostenv.stop_process(proc)
        return seconds
    seconds, _ = _run_child(_worker_cmd(args, "setup"), deadline, _env(args))
    return seconds


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one probe: checks the benchmark runs")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    try:
        hostenv.source_root()
        if args.workload == "check":
            import inputs
            inputs.extract_snapshot(hostenv.WORK_DIR / "check")
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    host = hostenv.host_record()
    try:
        _setup_probe(args, deadline)   # warm-up: bytecode, page cache
        setup_samples = [_setup_probe(args, deadline)
                         for _ in range(1 if args.smoke else PROBES)]
        _, result = _run_child(_worker_cmd(args, "main"), deadline, _env(args))
        if args.trace and args.workload == "campaign" and result["correct"]:
            result["layers"]["service.blas_oversubscription"] = (
                _blas_oversubscription(args, deadline, result))
    except (RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "setup_samples_s": setup_samples, "worker": result}
    hostenv.WORK_DIR.mkdir(parents=True, exist_ok=True)
    (hostenv.WORK_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("# host " + json.dumps(host, sort_keys=True), flush=True)

    if not result["correct"]:
        for error in result.get("errors", []):
            print(f"perfbench: gate failed: {error}", file=sys.stderr)
        _emit({"correct": False, "attempted": result["attempted"],
               "failed": max(1, result["failed"]), "metrics": {}})
        return 1

    if args.trace:
        layers = result["layers"]
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in PER_LAYER}
    else:
        values = dict(result["metrics"], setup_s=benchstats.median(setup_samples))
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in END_TO_END}
    _emit({"correct": True, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
