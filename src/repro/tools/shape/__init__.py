"""The shape analyzer — static array shape, dtype & aliasing analysis.

The paper's complexity-vs-performance comparison is only as good as the
numerical fidelity of each pipeline; this package is the fifth
static-analysis pass ("S-rules") that enforces the array-level side of
that contract.  It extends the shared flow index with a per-function
**symbolic array model** (:mod:`repro.tools.shape.arrays`) — shape
tuples over the dimension vocabulary the perf analyzer already infers
(samples, features, estimators, iterations, classes), a dtype lattice
(``bool < intp/int32 < float64 < object``), contiguity, and an
ownership tag (fresh, view-of, caller-owned, cache-stored) propagated
through assignments, numpy calls, and function summaries — and runs six
rules over it:

* **S401 shape-mismatch** — symbolically provable dimension conflicts
  at ``dot``/``matmul``/``concatenate``/``stack``/broadcast sites;
* **S402 dtype-instability** — builtin ``float``/``int`` dtype names
  (implicit platform width) in the learn substrate, and ``int32``
  arrays feeding overflow-prone ``cumsum``/``bincount`` reductions;
* **S403 alias-mutation** — in-place writes into caller-owned
  parameters, views of them, or arrays handed out by the
  :class:`~repro.learn.cache.FitCache` (shared read-only across fits
  and across the C204 process boundary);
* **S404 substrate-access** — loop-invariant fancy gathers and strided
  column reads inside per-row hot loops of modules tagged
  ``_COMPILED_SUBSTRATE`` (the memory-layout complement of P306);
* **S405 array-contract-spec** — each estimator's derived
  ``fit``/``predict``/``predict_proba``/``transform`` array contract
  (input shapes, validated parameters, return shape/dtype) must match
  the checked-in Table-1-style ``array_contracts_spec.py``
  (refresh with ``repro check --update-spec shape``);
* **S406 boundary-validation** — array parameters crossing the public
  platform API boundary without ``asarray``/``check_array``
  normalization, tracked through resolved in-project calls.

Importable API::

    from repro.tools.check import run_analyzer
    result = run_analyzer("shape", ["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro check --tools shape [PATHS...] [--format text|json]
    repro check --update-spec shape

Suppressions share the lint engine's comment syntax — a justified
suppression states the aliasing or numeric argument the analyzer
cannot see::

    counts[y] += 1  # repro: disable=S403 -- y validated fresh two lines up

The analysis reuses the lint engine (files parsed once, same reporters
and exit codes) and the flow package's shared indexes through the
memoized :mod:`repro.tools.indexing` facade, so lint, flow, race, perf,
and shape in one process parse the project once; the shape model itself
is memoized on the shared index entry.
"""

from __future__ import annotations

from repro.tools.shape.arrays import ShapeModel, build_shape_model
from repro.tools.shape.rules import default_shape_rules

__all__ = [
    "ShapeModel",
    "build_shape_model",
    "default_shape_rules",
]
