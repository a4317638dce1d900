"""The perf analyzer — static complexity & hot-path analysis.

The paper's axis is *complexity vs. performance*; this package is the
fourth static-analysis pass ("P-rules") that enforces that axis on the
reproduction itself.  It extends the shared flow index with a
per-function **loop-nest model** (:mod:`repro.tools.perf.loops`) —
which axis each Python loop walks (samples, features, estimators,
iterations), what its body does to ndarrays, and how loop depths
compose over the in-project call graph — and runs six rules over it:

* **P301 axis-loop** — a Python-level loop over a samples/features axis
  doing per-element array work (vectorization candidate; severity
  scales with the statically inferred nest depth);
* **P302 quadratic-growth** — ``x = np.append(x, ...)`` and friends
  inside a loop (copies the accumulated prefix every iteration);
* **P303 invariant-call** — a pure numpy call with loop-invariant
  arguments recomputed every iteration (hoist it);
* **P304 uncached-refit** — per-iteration clone+fit on a grid-search or
  orchestration path that bypasses the content-keyed
  :class:`~repro.learn.cache.FitCache`;
* **P305 complexity-spec** — each estimator's derived ``fit``/``predict``
  loop-nest depth over (samples, features, estimators, iterations) must
  match the checked-in Table-1-style ``complexity_spec.py``
  (refresh with ``repro check --update-spec perf``);
* **P306 hot-loop-alloc** — numpy allocation inside per-row hot loops
  of modules tagged ``_COMPILED_SUBSTRATE`` (the compiled tree
  substrate promises allocation-free inner loops).

Importable API::

    from repro.tools.check import run_analyzer
    result = run_analyzer("perf", ["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro check --tools perf [PATHS...] [--top N] [--profile F]
    repro check --update-spec perf

``--top N`` appends a ranked hotspot section to the perf report
(severity × nest depth, optionally re-weighted by a cProfile-derived
``--profile`` JSON); its head doubles as the work-list for compiling
the next substrate family.

Suppressions share the lint engine's comment syntax — a justified
suppression states the performance argument the analyzer cannot see::

    for j in range(X.shape[1]):  # repro: disable=P301 -- tau-b has no vectorized form

The analysis reuses the lint engine (files parsed once, same reporters
and exit codes) and the flow package's shared indexes through the
memoized :mod:`repro.tools.indexing` facade, so flow, race, and perf in
one process parse the project once; the loop model itself is memoized
on the shared index entry.
"""

from __future__ import annotations

from repro.tools.perf.loops import LoopModel, build_loop_model
from repro.tools.perf.rules import default_perf_rules

__all__ = [
    "LoopModel",
    "build_loop_model",
    "default_perf_rules",
]
