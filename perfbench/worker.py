"""One workload in a fresh interpreter (started by ``run.py``).

``--role setup`` imports the workload, materializes its inputs, prints
``READY`` and exits: ``run.py`` times that from spawn as one set-up
sample.  ``--role main`` then runs the warm-up, the correctness gate and
the timed phase (plus the traced phase with ``--trace 1``) and prints
``RESULT <json>``.  ``--role blas`` (campaign only) times the BLAS-heavy
plans in whatever BLAS environment it was started with.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from hostenv import WORK_DIR
from spans import Tracer

MODULES = {
    "campaign": "workload_campaign",
    "serve": "workload_serve",
    "check": "workload_check",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--role", choices=("setup", "main", "blas"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    module = importlib.import_module(MODULES[args.workload])
    import_s = time.perf_counter() - started
    state = module.setup(args)
    try:
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.role == "blas":
            print("RESULT " + json.dumps(module.blas_plans(state, args)), flush=True)
            return 0
        tracer = Tracer() if args.trace else None
        result = module.run(state, args, tracer)
        if tracer is not None:
            result["layers"]["setup.import_s"] = import_s
            result["layers"].update(state.get("setup_layers", {}))
            WORK_DIR.mkdir(parents=True, exist_ok=True)
            tracer.dump(WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(state)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
