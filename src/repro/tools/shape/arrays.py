"""Symbolic array-fact model for the shape analyzer.

A view over :mod:`repro.tools._interpreter`, which walks every function
the shared :class:`~repro.tools.flow.graph.FlowIndex` knows about once
and, besides perf's loop tree, abstract-interprets its ndarray
expressions into the facts the S-rules query:

* a **symbolic shape** over the same dimension vocabulary the perf
  analyzer infers (``samples``/``features``/``estimators``/
  ``iterations``/``classes``), plus literal ints and ``"?"`` for
  dimensions the model cannot name — ``X`` enters a function as
  ``("samples", "features")``, ``y`` as ``("samples",)``, and shapes
  flow through slicing, transposition, reductions, stacking, and the
  linear-algebra operators;
* a **dtype lattice** position — ``bool < intp/int32 < float64 <
  object`` — propagated from allocators, ``astype``, validators, and
  arithmetic, so the rules can see a silent upcast or a
  platform-dependent width before it changes bits;
* an **ownership tag** — ``fresh`` (allocated here), ``caller``
  (a parameter: somebody else's buffer), ``view`` (basic slice /
  ``asarray`` alias of another fact), ``cache`` (handed out by a
  :class:`~repro.learn.cache.FitCache`-style memo and shared
  read-only) — which is what lets S403 prove an in-place write lands
  in somebody else's array;
* per-site **event streams** the rules consume: shape-algebra
  mismatches at ``dot``/``matmul``/``concatenate``/broadcast sites,
  builtin-dtype drift points, mutations of non-owned arrays, and
  fancy/strided accesses inside hot loops of ``_COMPILED_SUBSTRATE``
  modules.

The model is deliberately approximate in the same direction as the
flow, race, and perf models: facts are only derived from simple
assignments and well-known numpy constructors, an unrecognized
expression yields *no* fact rather than a guess, and every rule
requires positively known facts on both sides before it fires — so the
suite errs toward silence, not false alarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools._interpreter import (
    DTYPE_RANK,
    ArrayFact,
    FunctionArrays,
    broadcast_conflict,
    interpret_functions,
    join_dtype,
)
from repro.tools.flow.graph import FlowIndex

__all__ = [
    "DTYPE_RANK",
    "ArrayFact",
    "FunctionArrays",
    "ShapeModel",
    "broadcast_conflict",
    "build_shape_model",
    "join_dtype",
]


@dataclass
class ShapeModel:
    """Every function's array facts plus the interprocedural summaries."""

    index: FlowIndex
    functions: dict = field(default_factory=dict)   # key -> FunctionArrays
    _validated: dict | None = None

    def validated_params(self) -> dict:
        """``function key -> set of param names reaching a validator``.

        A parameter counts as validated when its function calls
        ``check_array``/``check_X_y``/``column_or_1d``/``np.asarray`` on
        it, or forwards it (positionally or by keyword) to a resolved
        in-project function that validates the receiving parameter.
        Computed as a small monotone fixpoint over the call graph, so a
        platform ``predict`` delegating to a helper that validates
        still counts.
        """
        if self._validated is not None:
            return self._validated
        targets = self.index.call_targets
        validated = {key: set(fn.validated_params)
                     for key, fn in self.functions.items()}
        for _ in range(8):
            changed = False
            for key, fn in self.functions.items():
                for call_node, param_args in fn.forwarded_params:
                    target = targets.get(id(call_node))
                    if target is None or target not in self.functions:
                        continue
                    info = self.index.functions.get(target)
                    if info is None:
                        continue
                    callee_params = info.all_param_names()
                    for param, slot in param_args:
                        if param in validated[key]:
                            continue
                        if isinstance(slot, int):
                            name = callee_params[slot] \
                                if slot < len(callee_params) else None
                        else:
                            name = slot
                        if name is not None and name in validated[target]:
                            validated[key].add(param)
                            changed = True
            if not changed:
                break
        self._validated = validated
        return validated


def build_shape_model(index: FlowIndex,
                      functions: dict | None = None) -> ShapeModel:
    """The array facts of every function in the shared flow index.

    ``functions`` is :func:`~repro.tools._interpreter.interpret_functions`
    of ``index`` when the caller holds it already (``repro check`` keeps
    one per index entry); otherwise the functions are interpreted here.
    """
    if functions is None:
        functions = interpret_functions(index)
    return ShapeModel(index=index, functions={
        key: arrays for key, (_, arrays) in functions.items()})
