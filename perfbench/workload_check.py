"""``check``: ``repro check --format json`` over the frozen source snapshot.

The analyzed tree is ``snapshot/repro-src.tar.gz`` (``src/repro`` at a
fixed commit, without the analyzers' own ``tools`` package), so a change
that grows ``src/`` changes the analyzers being timed, never their
input.  Set-up ends when the shared index is built.  Every timed run
starts from a freshly built index with no memoized analyzer models,
exactly as one ``repro check`` invocation does, and must render the same
JSON report as the warm-up.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import time
from pathlib import Path

from repro.tools.check.cli import build_parser, run_check_command
from repro.tools.check.runner import TOOL_NAMES, run_check
from repro.tools.flow.runner import detect_context_paths
from repro.tools.indexing import (
    clear_index_cache,
    index_cache_info,
    load_indexed_project,
)
from repro.tools.lint.reporters import render_json

import benchstats
from hostenv import WORK_DIR
from hostspeed import Probe

MIN_RUNS = 2


def _load_index(paths) -> float:
    started = time.perf_counter()
    load_indexed_project(paths, root=Path.cwd(),
                         context_paths=detect_context_paths(paths))
    return time.perf_counter() - started


def setup(args) -> dict:
    os.chdir(WORK_DIR / "check")
    paths = [Path("src/repro/service" if args.smoke else "src/repro")]
    return {"paths": paths,
            "setup_layers": {"tools.index_s": _load_index(paths)}}


def _check_json(paths) -> tuple:
    """One ``repro check --format json``.

    Returns its ``time.monotonic()`` start and end, its CPU seconds and
    the report text.
    """
    out = io.StringIO()
    args = build_parser().parse_args([*map(str, paths), "--format", "json"])
    started, cpu_started = time.monotonic(), time.process_time()
    run_check_command(args, out=out)
    return (started, time.monotonic(), time.process_time() - cpu_started,
            out.getvalue())


def run(state: dict, args, tracer) -> dict:
    paths = state["paths"]
    if detect_context_paths(paths):
        raise RuntimeError("snapshot picked up context directories")
    # Warm-up: one full untimed run on the set-up index. The first run
    # in a process is 1-2 s slower than the next ones (first-call costs
    # and heap growth); a warm-up over a small package does not remove
    # that, so it covers the whole snapshot.
    _check_json(paths)

    # The check is single-threaded: it and the host-speed helper share
    # one processor, and a run is its CPU time (the helper's turns on
    # that processor are not the check's), scaled by that core's speed.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    windows = []
    runs = []
    reports = []
    with Probe([cpu]) as probe:
        phase_started = time.perf_counter()
        while len(windows) < MIN_RUNS or time.perf_counter() - phase_started < args.seconds:
            # Same start for every run: one fresh index, no other project
            # alive, no garbage left over from the previous run.
            clear_index_cache()
            _load_index(paths)
            gc.collect()
            started, ended, seconds, text = _check_json(paths)
            windows.append((started, ended))
            runs.append(seconds)
            reports.append(text)
    # In reference seconds (hostspeed.py); the run record keeps the raw ones.
    scaled = [seconds / probe.slowdown(*window) for seconds, window in zip(runs, windows)]
    reference = reports[0]
    report = json.loads(reference)
    errors = [f"analyzer crashed: {name}" for name in report["summary"]["crashed"]]
    errors += [f"run {n + 1} rendered a different report"
               for n, text in enumerate(reports) if text != reference]

    check_s = benchstats.median(scaled)
    n_tools = len(TOOL_NAMES)
    result = {
        "correct": not errors,
        "errors": errors,
        "attempted": n_tools * len(runs),
        "failed": len(report["summary"]["crashed"]) * len(runs),
        "metrics": {
            "throughput_per_s": report["summary"]["files"] / check_s,
            "latency_p50_ms": 1000.0 * check_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "notes": {"runs_cpu_s": runs, "runs_ref_s": scaled,
                  "kernel_s": probe.kernel_s, "files": report["summary"]["files"],
                  "exit_code": report["summary"]["exit_code"]},
    }
    if tracer is not None:
        # Tracing overhead compares unscaled seconds (the traced analyzers
        # run alone on their processor, so their wall is their CPU time).
        result["layers"] = _traced(paths, tracer, report,
                                   benchstats.median(runs), result)
    return result


def _traced(paths, tracer, report, check_s, result) -> dict:
    """Each analyzer alone, in suite order, over one shared index."""
    clear_index_cache()
    _load_index(paths)
    context = detect_context_paths(paths)
    results = {}
    for name in TOOL_NAMES:
        with tracer.span(f"tools.{name}", trace="check"):
            tool_report = run_check(paths, root=Path.cwd(),
                                    context_paths=context, tools=[name])
        if tool_report.crashes:
            result["correct"] = False
            result["errors"].append(f"analyzer crashed when traced: {name}")
            continue
        results[name] = tool_report.results[name]
    with tracer.span("tools.render", trace="check"):
        payloads = {name: json.loads(render_json(tool_result))
                    for name, tool_result in results.items()}
    for name, payload in payloads.items():
        if payload != report["tools"][name]:
            result["correct"] = False
            result["errors"].append(f"traced {name} report differs")

    layers = {f"tools.{name}_s": benchstats.median(
        span.duration for span in tracer.named(f"tools.{name}"))
        for name in (*results, "render")}
    # The six analyzers must share the one parse made above.
    misses = index_cache_info()["misses"]
    if misses != 1:
        result["correct"] = False
        result["errors"].append(f"analyzers parsed the tree {misses} times, not once")
    layers["tools.index_cache.misses"] = misses
    traced_s = sum(span.duration for span in tracer.spans)
    layers["trace.overhead_s"] = traced_s - check_s
    layers["trace.overhead_ratio"] = traced_s / check_s - 1.0
    return layers
