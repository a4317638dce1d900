"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, as
the benchmark does.  Workloads are interleaved (seed 1 of each, then
seed 2 of each, ...), so a slow drift of the host spreads over all of
them instead of biasing one.  Each run's wall time is printed with its
figures.  For every (workload, metric) it prints the median and the
inter-quartile spread as a share of the median, next to a third of the
metric's bound, the steadiness target.  Each run's full output is kept
in ``_work/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import benchstats
from hostenv import WORK_DIR
from metrics import END_TO_END, RUN_SECONDS, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    values: dict = {}
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with open(WORK_DIR / "spread.jsonl", "a", encoding="utf-8") as log:
        for seed in _seeds(args.seeds):
            for workload in WORKLOADS:
                started = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(RUN), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                     "--trace", "0"],
                    capture_output=True, text=True, timeout=200,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                log.flush()
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
                figures = ", ".join(f"{n}={m['value']:.4g}"
                                    for n, m in result["metrics"].items())
                print(f"{workload} seed {seed} "
                      f"({time.perf_counter() - started:.0f} s): {figures}", flush=True)
    bounds = {m["name"]: m["bound"] for m in END_TO_END}
    print(f"{'workload':10} {'metric':18} {'n':>3} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for (workload, name), series in sorted(values.items()):
        spread = benchstats.quartile_spread(series) if len(series) > 1 else float("nan")
        print(f"{workload:10} {name:18} {len(series):3d} "
              f"{benchstats.median(series):12.5g} {spread:8.4f} {bounds[name] / 3:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
