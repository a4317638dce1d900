"""Per-function loop-nest model for the perf analyzer.

A view over :mod:`repro.tools._interpreter`, which walks every function
the shared :class:`~repro.tools.flow.graph.FlowIndex` knows about once
and yields, besides shape's array facts, the structure the P-rules
query:

* the tree of ``for``/``while`` loops with each loop's **iteration
  dimension** — which axis of the problem it walks (``samples``,
  ``features``, ``estimators``, ``iterations``, ``classes``) — inferred
  from the iterable (``range(X.shape[0])``, ``rng.permutation(n)``,
  direct iteration over a known ndarray, ``self.n_estimators`` …);
* per-loop body facts: element-wise ndarray writes, array-traversing
  operations, per-element list appends, quadratic growth sites
  (``x = np.append(x, …)``), numpy allocations, and loop-invariant pure
  numpy calls that could be hoisted;
* per-call-site enclosing-dimension chains, which
  :mod:`repro.tools.perf.complexity` folds over the call graph into
  per-estimator loop-nest depths (:meth:`LoopModel.depth_summary`).

The model is deliberately approximate in the same direction as the flow
and race models: ndarray-ness is propagated from ``X``/``y`` parameters,
``check_array``/``check_X_y`` results and ``np.*`` constructors through
simple assignments only, comprehensions are treated as opaque
expressions, and nested ``def``s are separate (unmodelled) scopes — so
the rules built on top err toward silence, not false alarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools._interpreter import (
    AXIS_NAMES,
    DEPTH_CAP,
    DIMS,
    FunctionLoops,
    LoopInfo,
    interpret_functions,
)
from repro.tools.flow.graph import FlowIndex

__all__ = [
    "AXIS_NAMES",
    "DEPTH_CAP",
    "DIMS",
    "FunctionLoops",
    "LoopInfo",
    "LoopModel",
    "build_loop_model",
]


@dataclass
class LoopModel:
    """Every function's loop facts plus the interprocedural depth map."""

    index: FlowIndex
    functions: dict = field(default_factory=dict)    # key -> FunctionLoops
    _depths: dict | None = None

    def depth_summary(self) -> dict:
        """``(module, qualname) -> {dim: loop-nest depth}`` over the call graph.

        A function's depth along a dimension is the deepest chain of
        that dimension's loops reachable from it: its own nests, plus —
        for every resolved in-project call — the enclosing loops at the
        call site stacked on the callee's depth.  Computed as a monotone
        fixpoint capped at :data:`DEPTH_CAP`, so recursion (tree growth)
        terminates deterministically.
        """
        if self._depths is not None:
            return self._depths
        targets = self.index.call_targets
        depths: dict = {key: dict(fn.own_dims)
                        for key, fn in self.functions.items()}
        for _ in range(4 * DEPTH_CAP):
            changed = False
            for key, fn in self.functions.items():
                current = dict(depths[key])
                for call_node, chain in fn.call_records:
                    target = targets.get(id(call_node))
                    if target is None or target not in depths:
                        continue
                    counts: dict = {}
                    for dim in chain:
                        if dim is not None:
                            counts[dim] = counts.get(dim, 0) + 1
                    for dim in set(counts) | set(depths[target]):
                        value = min(
                            DEPTH_CAP,
                            counts.get(dim, 0) + depths[target].get(dim, 0),
                        )
                        if value > current.get(dim, 0):
                            current[dim] = value
                if current != depths[key]:
                    depths[key] = current
                    changed = True
            if not changed:
                break
        self._depths = depths
        return depths


def build_loop_model(index: FlowIndex,
                     functions: dict | None = None) -> LoopModel:
    """The loop facts of every function in the shared flow index.

    ``functions`` is :func:`~repro.tools._interpreter.interpret_functions`
    of ``index`` when the caller holds it already (``repro check`` keeps
    one per index entry); otherwise the functions are interpreted here.
    """
    if functions is None:
        functions = interpret_functions(index)
    return LoopModel(index=index, functions={
        key: loops for key, (loops, _) in functions.items()})
