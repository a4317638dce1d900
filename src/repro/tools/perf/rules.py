"""The P-rules: static performance findings over the shared loop model.

Each rule queries the :class:`~repro.tools.perf.loops.LoopModel` built
once per run and injected by the runner (mirroring how the C-rules
receive the concurrency index).  All six are project rules, but every
violation is anchored to the file and line of the offending loop or
call, so the shared suppression machinery applies unchanged.

The catalogue, in severity order of a typical finding:

* **P302** — quadratic growth: an array/list rebound through
  ``np.append``/``np.concatenate``/self-concatenation inside a loop.
* **P304** — repeated pure fits on a search path not routed through the
  :class:`~repro.learn.cache.FitCache`.
* **P301** — a Python-level loop over an ndarray axis doing per-element
  work (vectorization candidate; severity scales with nest depth).
* **P306** — fresh-buffer allocation inside a per-row hot loop of a
  compiled-substrate module (one tagged ``_COMPILED_SUBSTRATE``).
* **P303** — a loop-invariant pure numpy call that should be hoisted.
* **P305** — complexity-spec conformance: derived ``fit``/``predict``
  loop-nest depths must match the checked-in ``complexity_spec.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.tools.lint.engine import FunctionRule, Project, Violation
from repro.tools.perf.complexity import (
    DEFAULT_SPEC_PATH,
    SPEC_DIMS,
    derive_complexity,
)
from repro.tools.perf.loops import LoopModel
from repro.tools.specs import diff_estimator_spec, load_literal_spec

__all__ = [
    "AxisLoopRule",
    "ComplexitySpecRule",
    "HotLoopAllocRule",
    "InvariantCallRule",
    "PerfRule",
    "QuadraticGrowthRule",
    "UncachedRefitRule",
    "default_perf_rules",
]

#: Module prefixes where repeated pure fits matter (search/orchestration
#: paths): the substrate's own internal fits are its business.
_REFIT_SCOPES = (
    "repro.learn.model_selection",
    "repro.learn.pipeline",
    "repro.platforms",
    "repro.core",
    "repro.analysis",
    "repro.service",
)


class PerfRule(FunctionRule):
    """Base class for P-rules; the runner injects the loop model."""


class AxisLoopRule(PerfRule):
    """P301: Python-level loop over an ndarray axis doing per-element work."""

    code = "P301"
    name = "axis-loop"
    description = (
        "A for-loop iterating a samples/features axis with per-element "
        "array reads/writes is a vectorization candidate; severity "
        "scales with the statically inferred loop-nest depth."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag unchunked axis loops whose bodies do per-element work."""
        for fn in self._functions():
            for loop in fn.loops:
                if loop.chunked or loop.dim not in ("samples", "features"):
                    continue
                per_element = loop.elem_writes > 0 and loop.array_ops > 0
                accumulating = (loop.dim == "samples" and loop.direct
                                and loop.appends > 0)
                if not (per_element or accumulating):
                    continue
                work = (
                    f"{loop.elem_writes} per-element array write(s)"
                    if per_element else
                    f"{loop.appends} per-sample append(s)"
                )
                yield self._violation(
                    fn, loop.lineno, loop.col,
                    f"depth-{loop.nest_depth} Python loop over the "
                    f"{loop.dim} axis ({loop.iter_source}) does {work}; "
                    "vectorize with whole-array numpy operations",
                )


class QuadraticGrowthRule(PerfRule):
    """P302: growing an array/list by re-concatenation inside a loop."""

    code = "P302"
    name = "quadratic-growth"
    description = (
        "Rebinding a name through np.append/np.concatenate/np.vstack "
        "(or list self-concatenation) inside a loop copies the "
        "accumulated prefix every iteration: quadratic total work.  "
        "Collect into a list and concatenate once, or preallocate."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag self-referential copy-producing rebinds inside loops."""
        for fn in self._functions():
            for loop in fn.loops:
                for line, col, text in loop.growth_sites:
                    yield self._violation(
                        fn, line, col,
                        f"depth-{loop.nest_depth} loop grows an array by "
                        f"copying it each iteration ({text}); collect "
                        "parts and concatenate once after the loop",
                    )


class InvariantCallRule(PerfRule):
    """P303: a loop-invariant pure numpy call recomputed every iteration."""

    code = "P303"
    name = "invariant-call"
    description = (
        "A pure numpy call whose arguments are untouched by the "
        "enclosing loop recomputes the same value every iteration; "
        "hoist it above the loop.  Allocators are exempt (hoisting "
        "them would share one buffer across iterations)."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag hoistable pure calls with loop-invariant arguments."""
        for fn in self._functions():
            for loop in fn.loops:
                for line, col, text in loop.invariant_calls:
                    yield self._violation(
                        fn, line, col,
                        f"loop-invariant pure call {text} is recomputed "
                        "every iteration; hoist it above the "
                        f"{loop.kind}-loop at line {loop.lineno}",
                    )


class UncachedRefitRule(PerfRule):
    """P304: repeated pure fits on a search path bypassing the FitCache."""

    code = "P304"
    name = "uncached-refit"
    description = (
        "A loop on a grid-search/orchestration path that constructs an "
        "estimator (clone or constructor) and fits it each iteration, "
        "in a function that never touches a FitCache/memory handle, "
        "repeats pure work the content-keyed cache exists to absorb."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag per-iteration clone+fit in cache-less search functions."""
        estimators = self.model.index.project.subclasses_of(
            ["BaseEstimator"])
        makers = estimators | {"clone"}
        for fn in self._functions():
            if fn.touches_cache or not fn.key[0].startswith(_REFIT_SCOPES):
                continue
            for loop in fn.loops:
                fitted = {recv for _, _, recv in loop.fit_calls}
                for name, ctor in sorted(loop.made_estimators.items()):
                    if ctor in makers and name in fitted:
                        yield self._violation(
                            fn, loop.lineno, loop.col,
                            f"loop builds {name} = {ctor}(...) and fits "
                            "it every iteration without a FitCache; "
                            "route the fit through the cache or document "
                            "why its inputs never repeat",
                        )


class ComplexitySpecRule(PerfRule):
    """P305: derived estimator complexity must match the checked-in spec."""

    code = "P305"
    name = "complexity-spec"
    description = (
        "Each estimator's fit/predict loop-nest depth over "
        f"{SPEC_DIMS} is derived from the loop model and compared "
        "against complexity_spec.py; run `repro check --update-spec perf` "
        "to record an intentional change."
    )

    def __init__(self, model: LoopModel | None = None,
                 spec_path: Path = DEFAULT_SPEC_PATH):
        super().__init__(model)
        self.spec_path = spec_path

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Compare a fresh derivation against the checked-in spec."""
        derived = derive_complexity(self.model)
        spec = load_literal_spec(self.spec_path, "COMPLEXITY")

        def message(kind: str, class_path: str) -> str:
            if kind == "unreadable":
                return ("complexity spec is missing or unreadable at "
                        f"{self.spec_path}; run `repro check "
                        "--update-spec perf`")
            if kind == "absent":
                return (f"estimator {class_path} is not in the complexity "
                        "spec; run `repro check --update-spec perf` to "
                        f"record its derived cost {derived[class_path]!r}")
            if kind == "differs":
                return (f"derived complexity of {class_path} "
                        f"({derived[class_path]!r}) disagrees with the "
                        f"spec ({spec[class_path]!r}); vectorize back to "
                        "the recorded depth or run `repro check "
                        "--update-spec perf` to accept the change")
            return (f"spec entry {class_path} matches no analyzed "
                    "estimator (renamed or removed); run `repro check "
                    "--update-spec perf` to drop it")

        return diff_estimator_spec(self, derived, spec, message)


class HotLoopAllocRule(PerfRule):
    """P306: allocation inside per-row hot loops of compiled substrate."""

    code = "P306"
    name = "hot-loop-alloc"
    description = (
        "Modules tagged `_COMPILED_SUBSTRATE = True` promise "
        "allocation-free per-row inner loops; a numpy allocator inside "
        "a samples-dim or while loop there defeats the compiled "
        "layout's point."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Flag allocator calls in hot loops of tagged modules."""
        tagged = set()
        for module in project.modules:
            if module.top_level_assign("_COMPILED_SUBSTRATE") is not None:
                tagged.add(module.dotted_name)
        if not tagged:
            return
        for fn in self._functions():
            if fn.key[0] not in tagged:
                continue
            for loop in fn.loops:
                hot = loop.dim == "samples" or loop.kind == "while" or \
                    "samples" in loop.enclosing_dims
                if not hot:
                    continue
                for line, col, text in loop.alloc_sites:
                    yield self._violation(
                        fn, line, col,
                        f"allocation {text} inside a per-row hot loop of "
                        "a compiled-substrate module; preallocate "
                        "outside the loop and reuse the buffer",
                    )


def default_perf_rules(model: LoopModel | None = None,
                       spec_path: Path | None = None) -> list:
    """The six P-rules, in code order, sharing one loop model."""
    return [
        AxisLoopRule(model),
        QuadraticGrowthRule(model),
        InvariantCallRule(model),
        UncachedRefitRule(model),
        ComplexitySpecRule(model, spec_path or DEFAULT_SPEC_PATH),
        HotLoopAllocRule(model),
    ]
