"""The benchmark's metric lists, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the checkout is the one place where
metric names, units, directions and bounds are defined.  Each workload
reports every end-to-end metric (its own reading of it is in NOTES.md)
and, in a traced run, every per-layer metric: a layer the workload never
enters reads 0, because no span of that layer was recorded.  The short
tuples below are the names the workloads iterate over.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["SPEC", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "WORKLOADS",
           "PROTOCOLS", "OPS", "PLATFORMS"]

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: ``[{"name", "unit", "better", "bound"}, ...]``
END_TO_END = SPEC["end_to_end"]
#: ``[{"name", "unit", "better"}, ...]``
PER_LAYER = SPEC["per_layer"]
RUN_SECONDS = SPEC["run_seconds"]
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])

PROTOCOLS = ("baseline", "FEAT", "CLF", "PARA")
#: Platform operations of one measurement / one serve session.
OPS = ("upload_dataset", "create_model", "get_model", "batch_predict",
       "delete_dataset")
PLATFORMS = ("abm", "google", "amazon", "predictionio", "bigml",
             "microsoft", "local")
