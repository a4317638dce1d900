"""The flow analyzer — project-wide data-flow & architecture analysis.

Where the lint analyzer checks files one at a time, flow parses the
whole project into shared indexes (symbol table, import graph, approximate
call graph — see :mod:`repro.tools.flow.graph`) and runs five cross-module
rule families over them:

* **F101 layering** — the dependency DAG in
  :mod:`repro.tools.flow.layers_spec` (no upward imports, no import-time
  cycles);
* **F102 leakage-taint** — values derived from held-out test folds never
  reach ``fit``/``fit_transform`` through any interprocedural path;
* **F103 seed-flow** — callers holding a ``random_state``/``seed`` thread
  it into every stochastic callee (R001 across call boundaries);
* **F104 dead-code** — module-level symbols are reachable from
  ``__all__``, the CLI, benchmarks, examples, or tests;
* **F105 api-drift** — the exported API surface matches the checked-in
  ``api_spec.json`` (update with ``repro check --update-spec flow``).

Importable API::

    from repro.tools.check import run_analyzer
    result = run_analyzer("flow", ["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro check --tools flow [PATHS...] [--format text|json]
    repro check --update-spec flow

Suppressions share the lint engine's comment syntax::

    tricky()  # repro: disable=F102 -- calibration split, not evaluation
"""

from __future__ import annotations

from repro.tools.flow.graph import FlowIndex, build_index
from repro.tools.flow.layers_spec import LAYERS, Layer, layer_of
from repro.tools.flow.rules import default_flow_rules

__all__ = [
    "FlowIndex",
    "LAYERS",
    "Layer",
    "build_index",
    "default_flow_rules",
    "layer_of",
]
