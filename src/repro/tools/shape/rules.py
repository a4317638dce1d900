"""The S-rules: static array-contract findings over the shared shape model.

Each rule queries the :class:`~repro.tools.shape.arrays.ShapeModel`
built once per run and injected by the runner (mirroring how the
P-rules receive the loop model).  All six are project rules, but every
violation is anchored to the file and line of the offending expression,
so the shared suppression machinery applies unchanged.

The catalogue, in severity order of a typical finding:

* **S401** — shape-algebra mismatch: symbolically provable dimension
  conflicts at ``dot``/``matmul``/``concatenate``/``stack``/broadcast
  sites.
* **S403** — in-place mutation of an array the function does not own:
  a caller's buffer, a view of one, or a cache-stored array shared
  read-only across fits.
* **S402** — dtype instability on hot paths: builtin ``float``/``int``
  dtype names (implicit width) in the learn substrate, or an ``int32``
  array feeding an overflow-prone reduction.
* **S406** — an array parameter crossing the platform API boundary
  without ``asarray``/``check_array`` normalization, directly or
  through a resolved in-project callee.
* **S404** — fancy-indexed or strided access inside hot loops of a
  ``_COMPILED_SUBSTRATE`` module (the memory-layout complement of
  P306's allocation ban).
* **S405** — array-contract conformance: derived estimator
  ``fit``/``predict`` array contracts must match the checked-in
  ``array_contracts_spec.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.tools.lint.engine import FunctionRule, Project, Violation
from repro.tools.shape.arrays import ShapeModel
from repro.tools.shape.contracts import DEFAULT_SPEC_PATH, derive_contracts
from repro.tools.specs import diff_estimator_spec, load_literal_spec

__all__ = [
    "AliasMutationRule",
    "BoundaryValidationRule",
    "ContractSpecRule",
    "DtypeStabilityRule",
    "ShapeMismatchRule",
    "ShapeRule",
    "SubstrateAccessRule",
    "default_shape_rules",
]

#: Module prefix where the float64 determinism contract makes builtin
#: dtype names a finding: the numeric substrate itself.
_HOT_DTYPE_SCOPE = "repro.learn"

#: Module prefix whose public entry points are the platform API
#: boundary (S406): arrays arriving here come from user code.
_BOUNDARY_SCOPE = "repro.platforms"


class ShapeRule(FunctionRule):
    """Base class for S-rules; the runner injects the shape model."""


class ShapeMismatchRule(ShapeRule):
    """S401: provable dimension conflict at a shape-algebra site."""

    code = "S401"
    name = "shape-mismatch"
    description = (
        "At dot/matmul/concatenate/stack/broadcast sites where both "
        "operand shapes are symbolically known over the "
        "samples/features/estimators/iterations/classes vocabulary, "
        "the joined dimensions must agree (literal 1 broadcasts, "
        "unknown dims match anything)."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag symbolically provable shape conflicts."""
        for fn in self._functions():
            for line, col, text in fn.mismatch_sites:
                yield self._violation(fn, line, col, text)


class DtypeStabilityRule(ShapeRule):
    """S402: dtype instability on the numeric substrate's hot paths."""

    code = "S402"
    name = "dtype-instability"
    description = (
        "The substrate's bit-identical contract pins arrays to "
        "np.float64/np.intp; a builtin float/int dtype name in "
        "repro.learn leaves the width to the platform, and an int32 "
        "array feeding cumsum/bincount/sum can silently overflow."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag builtin dtype names and overflow-prone int32 reductions."""
        for fn in self._functions():
            in_scope = fn.key[0].startswith(_HOT_DTYPE_SCOPE)
            for line, col, kind, text in fn.dtype_sites:
                if kind == "builtin-float":
                    if in_scope:
                        yield self._violation(
                            fn, line, col,
                            f"builtin dtype `float` in {text}; spell it "
                            "np.float64 to pin the determinism contract's "
                            "width",
                        )
                elif kind == "builtin-int":
                    if in_scope:
                        yield self._violation(
                            fn, line, col,
                            f"builtin dtype `int` in {text} is "
                            "platform-width; spell it np.intp (indices) "
                            "or np.int64 (counts)",
                        )
                elif kind == "int32-reduce":
                    yield self._violation(
                        fn, line, col,
                        f"int32 array feeds {text}; the running total "
                        "can overflow 32 bits — widen to np.intp before "
                        "reducing",
                    )


class AliasMutationRule(ShapeRule):
    """S403: in-place mutation of an aliased or cache-stored array."""

    code = "S403"
    name = "alias-mutation"
    description = (
        "Writing in place into a caller-owned parameter, a view of "
        "one, or an array handed out by a FitCache mutates data some "
        "other owner still reads; copy first (FitCache results are "
        "shared read-only across fits and across the C204 process "
        "boundary)."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag in-place writes landing in arrays the function doesn't own."""
        for fn in self._functions():
            for line, col, name, owner, base, text in fn.mutation_sites:
                if owner == "cache":
                    detail = (
                        f"{text} mutates cache-stored array {name} in "
                        "place; FitCache results are shared read-only — "
                        "copy before writing"
                    )
                else:
                    via = f" (a view of {base})" if base and base != name \
                        else ""
                    detail = (
                        f"{text} mutates caller-owned array {name}"
                        f"{via} in place; copy before writing or "
                        "document the out-parameter contract"
                    )
                yield self._violation(fn, line, col, detail)


class SubstrateAccessRule(ShapeRule):
    """S404: cache-hostile access inside compiled-substrate hot loops."""

    code = "S404"
    name = "substrate-access"
    description = (
        "Modules tagged `_COMPILED_SUBSTRATE = True` promise "
        "contiguous streaming inner loops; a loop-invariant fancy "
        "gather (hoistable copy per iteration) or a strided "
        "column/transposed read inside a per-row loop there defeats "
        "the compiled layout (complements P306's allocation ban)."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag fancy/strided hot-loop reads in tagged modules."""
        tagged = set()
        for module in project.modules:
            if module.top_level_assign("_COMPILED_SUBSTRATE") is not None:
                tagged.add(module.dotted_name)
        if not tagged:
            return
        for fn in self._functions():
            if fn.key[0] not in tagged:
                continue
            for line, col, kind, text in fn.access_sites:
                if kind == "invariant-gather":
                    message = (
                        f"loop-invariant fancy gather {text} copies the "
                        "same selection every iteration; hoist it above "
                        "the loop"
                    )
                elif kind == "strided-column":
                    message = (
                        f"strided column read {text} inside a per-row "
                        "hot loop; transpose or copy the column to a "
                        "contiguous buffer outside the loop"
                    )
                else:
                    message = (
                        f"non-contiguous array read {text} inside a "
                        "per-row hot loop; materialize a contiguous "
                        "buffer outside the loop"
                    )
                yield self._violation(fn, line, col, message)


class ContractSpecRule(ShapeRule):
    """S405: derived array contracts must match the checked-in spec."""

    code = "S405"
    name = "array-contract-spec"
    description = (
        "Each estimator's fit/predict/predict_proba/transform array "
        "contract (input shapes, validated parameters, return "
        "shape/dtype) is derived from the shape model and compared "
        "against array_contracts_spec.py; run `repro check "
        "--update-spec shape` to record an intentional change."
    )

    def __init__(self, model: ShapeModel | None = None,
                 spec_path: Path = DEFAULT_SPEC_PATH):
        super().__init__(model)
        self.spec_path = spec_path

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Compare a fresh derivation against the checked-in spec."""
        derived = derive_contracts(self.model)
        spec = load_literal_spec(self.spec_path, "ARRAY_CONTRACTS")

        def message(kind: str, class_path: str) -> str:
            if kind == "unreadable":
                return ("array-contract spec is missing or unreadable at "
                        f"{self.spec_path}; run `repro check "
                        "--update-spec shape`")
            if kind == "absent":
                return (f"estimator {class_path} is not in the "
                        "array-contract spec; run `repro check "
                        "--update-spec shape` to record its derived "
                        "contract")
            if kind == "differs":
                # literal_eval round-trips tuples exactly, so derived
                # entries compare structurally against the literals.
                want, got = spec[class_path], derived[class_path]
                changed = sorted(method for method in set(want) | set(got)
                                 if want.get(method) != got.get(method))
                return (f"derived array contract of {class_path} "
                        f"disagrees with the spec on {', '.join(changed)}; "
                        "restore the recorded contract or run `repro check "
                        "--update-spec shape` to accept the change")
            return (f"spec entry {class_path} matches no analyzed "
                    "estimator (renamed or removed); run `repro check "
                    "--update-spec shape` to drop it")

        return diff_estimator_spec(self, derived, spec, message)


class BoundaryValidationRule(ShapeRule):
    """S406: unvalidated arrays crossing the platform API boundary."""

    code = "S406"
    name = "boundary-validation"
    description = (
        "Public entry points of repro.platforms receive arrays from "
        "user code; every X/y parameter must pass through "
        "check_array/check_X_y/asarray (directly or via a resolved "
        "in-project callee) before the substrate consumes it, so "
        "dtype and shape are normalized at the boundary."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag public boundary entry points with unvalidated array params."""
        validated = self.model.validated_params()
        for fn in self._functions():
            if not fn.key[0].startswith(_BOUNDARY_SCOPE):
                continue
            qualname = fn.key[1]
            parts = qualname.split(".")
            if any(part.startswith("_") for part in parts):
                continue
            info = self.model.index.functions.get(fn.key)
            if info is None:
                continue
            array_params = sorted(
                name for name, fact in fn.facts.items()
                if not name.startswith("self.") and fact.owner == "caller"
            )
            missing = [name for name in array_params
                       if name not in validated.get(fn.key, set())]
            if not missing:
                continue
            yield self._violation(
                fn, info.node.lineno, info.node.col_offset,
                f"array parameter(s) {', '.join(missing)} cross the "
                "platform API boundary without asarray/check_array "
                "normalization; validate at the entry point",
            )


def default_shape_rules(model: ShapeModel | None = None,
                        spec_path: Path | None = None) -> list:
    """The six S-rules, in code order, sharing one shape model."""
    return [
        ShapeMismatchRule(model),
        DtypeStabilityRule(model),
        AliasMutationRule(model),
        SubstrateAccessRule(model),
        ContractSpecRule(model, spec_path or DEFAULT_SPEC_PATH),
        BoundaryValidationRule(model),
    ]
