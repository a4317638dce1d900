"""The analyzer registry and the one driver that runs it.

Every analyzer is an :class:`Analyzer` descriptor in :data:`ANALYZERS`:
its code prefix, a rule factory, a builder for the model its rules read
off the shared :class:`~repro.tools.indexing.IndexedProject`, and — for
flow, perf, shape and wire — the checked-in spec its rules diff the
tree against, with the hook that rewrites it.  :func:`run_analyzer`
runs one analyzer and :func:`run_check` runs the suite; both go through
the memoized :mod:`repro.tools.indexing` facade, so the project is
parsed and indexed once per process, and through the lint engine's
:func:`~repro.tools.lint.engine.run_rules`, so suppressions and ordering
are handled in one place.

The analyzer packages are imported only when an analyzer runs, which
keeps ``import repro.cli`` free of them.

A tool that crashes is isolated: its traceback is captured on the
report (and mapped to exit 3 in the merged exit code) while the other
tools still run, so one analyzer bug never hides another analyzer's
findings.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.tools.exitcodes import EXIT_CRASH
from repro.tools.lint.engine import ENGINE_CODE, LintResult, run_rules

__all__ = [
    "ANALYZERS",
    "Analyzer",
    "CheckReport",
    "Spec",
    "TOOL_NAMES",
    "get_analyzer",
    "known_codes",
    "run_analyzer",
    "run_check",
]

_TOOLS_DIR = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Spec:
    """A checked-in spec an analyzer's rules diff the tree against."""

    #: Where the rules read it unless a run names another file.
    path: Path
    #: ``update(loaded, path) -> message``: rewrite it from the tree.
    update: Callable


@dataclass(frozen=True)
class Analyzer:
    """One analyzer of the suite."""

    name: str
    #: The letter every one of its rule codes starts with.
    prefix: str
    #: ``rules(model, spec_path) -> list``: one instance of each rule.
    rules: Callable
    #: ``model(loaded) -> model`` its rules read (``None``: lint's rules
    #: read the parsed modules only).
    model: Callable | None = None
    #: Rule attribute through which an unbound rule gets the model.
    attr: str | None = None
    spec: Spec | None = None
    #: Width of the rule-name column in ``--list-rules``.
    name_width: int = 22


def _lint_rules(model, spec_path) -> list:
    from repro.tools.lint.rules import default_rules

    return default_rules()


def _flow_rules(index, spec_path) -> list:
    from repro.tools.flow.rules import default_flow_rules

    return default_flow_rules(index, spec_path=spec_path)


def _update_flow(loaded, path: Path) -> str:
    from repro.tools.flow import apispec

    apispec.write_spec(apispec.extract_surface(loaded.index), path)
    return (f"wrote API surface of {len(loaded.index.modules)} modules "
            f"to {path}")


def _race_rules(con, spec_path) -> list:
    from repro.tools.race.rules import default_race_rules

    return default_race_rules(con)


def _concurrency(loaded):
    from repro.tools.race.concurrency import build_concurrency

    # Built per run rather than memoized: only the C-rules read it, and
    # keeping it alive would raise a whole-suite run's peak memory.
    return build_concurrency(loaded.index)


def _perf_rules(model, spec_path) -> list:
    from repro.tools.perf.rules import default_perf_rules

    return default_perf_rules(model, spec_path=spec_path)


def _loop_model(loaded):
    from repro.tools.perf.loops import build_loop_model

    return loaded.memo("perf", lambda: build_loop_model(loaded.index))


def _update_perf(loaded, path: Path) -> str:
    from repro.tools.perf.complexity import derive_complexity, write_spec

    spec = derive_complexity(_loop_model(loaded))
    write_spec(spec, path)
    return f"wrote derived complexity of {len(spec)} estimator(s) to {path}"


def _shape_rules(model, spec_path) -> list:
    from repro.tools.shape.rules import default_shape_rules

    return default_shape_rules(model, spec_path=spec_path)


def _shape_model(loaded):
    from repro.tools.shape.arrays import build_shape_model

    return loaded.memo("shape", lambda: build_shape_model(loaded.index))


def _update_shape(loaded, path: Path) -> str:
    from repro.tools.shape.contracts import derive_contracts, write_spec

    spec = derive_contracts(_shape_model(loaded))
    write_spec(spec, path)
    return (f"wrote derived array contracts of {len(spec)} estimator(s) "
            f"to {path}")


def _wire_rules(model, spec_path) -> list:
    from repro.tools.wire.rules import default_wire_rules

    return default_wire_rules(model, spec_path=spec_path)


def _wire_model(loaded):
    from repro.tools.wire.wiremodel import build_wire_model

    # W504 reads shape's dtype facts, so one wire run warms both models.
    return loaded.memo("wire", lambda: build_wire_model(
        loaded.index, _shape_model(loaded)))


def _update_wire(loaded, path: Path) -> str:
    from repro.tools.wire.spec import derive_wire_spec, write_spec

    spec = derive_wire_spec(_wire_model(loaded))
    write_spec(spec, path)
    return (f"wrote derived wire contract ({len(spec['routes'])} "
            f"route(s), {len(spec['client'])} client method(s), "
            f"{len(spec['errors'])} error kind(s)) to {path}")


#: The six analyzers, in suite order (lint first: its R-codes anchor
#: the suppression vocabulary the others extend).
ANALYZERS = (
    Analyzer("lint", "R", _lint_rules, name_width=20),
    Analyzer("flow", "F", _flow_rules, model=lambda loaded: loaded.index,
             attr="index", name_width=20,
             spec=Spec(_TOOLS_DIR / "flow" / "api_spec.json", _update_flow)),
    Analyzer("race", "C", _race_rules, model=_concurrency, attr="con"),
    Analyzer("perf", "P", _perf_rules, model=_loop_model, attr="model",
             spec=Spec(_TOOLS_DIR / "perf" / "complexity_spec.py",
                       _update_perf)),
    Analyzer("shape", "S", _shape_rules, model=_shape_model, attr="model",
             spec=Spec(_TOOLS_DIR / "shape" / "array_contracts_spec.py",
                       _update_shape)),
    Analyzer("wire", "W", _wire_rules, model=_wire_model, attr="model",
             spec=Spec(_TOOLS_DIR / "wire" / "wire_spec.py", _update_wire)),
)

TOOL_NAMES = tuple(analyzer.name for analyzer in ANALYZERS)


def get_analyzer(name: str) -> Analyzer:
    """The descriptor called ``name``; ``ValueError`` if there is none."""
    for analyzer in ANALYZERS:
        if analyzer.name == name:
            return analyzer
    raise ValueError(f"unknown analyzer {name!r} "
                     f"(choose from {', '.join(TOOL_NAMES)})")


def known_codes() -> set:
    """The suppression vocabulary: every analyzer's codes plus R000.

    A justified suppression of any analyzer's code is accepted by every
    other analyzer, since they all read the same comments.
    """
    codes = {ENGINE_CODE}
    for analyzer in ANALYZERS:
        codes.update(rule.code for rule in analyzer.rules(None, None))
    return codes


@dataclass
class CheckReport:
    """Per-tool results of one ``repro check`` run."""

    #: tool name -> :class:`LintResult`, in :data:`TOOL_NAMES` order.
    results: dict = field(default_factory=dict)
    #: tool name -> formatted traceback for tools that crashed.
    crashes: dict = field(default_factory=dict)
    n_files: int = 0

    @property
    def exit_code(self) -> int:
        """Worst exit code across the tools (a crash dominates)."""
        code = 0
        for result in self.results.values():
            code = max(code, result.exit_code)
        if self.crashes:
            code = max(code, EXIT_CRASH)
        return code


def _load(paths: Sequence, root, context_paths):
    from repro.tools.flow.runner import detect_context_paths
    from repro.tools.indexing import load_indexed_project

    if context_paths is None:
        context_paths = detect_context_paths(paths)
    return load_indexed_project(paths, root=root, context_paths=context_paths)


def run_analyzer(
    name: str,
    paths: Sequence,
    *,
    rules: Sequence | None = None,
    root: Path | None = None,
    context_paths: Sequence | None = None,
    spec_path: Path | None = None,
) -> LintResult:
    """Run the analyzer called ``name`` over ``paths``.

    ``rules=None`` runs all of its rules; a subset may be passed, and a
    rule not yet bound to a model gets the shared one.  ``spec_path``
    points the spec rules at another spec file than the checked-in one.
    ``context_paths=None`` finds the benchmarks/examples/tests next to
    the analyzed tree; pass ``()`` to analyze it in isolation.
    """
    analyzer = get_analyzer(name)
    loaded = _load(paths, root, context_paths)
    model = analyzer.model(loaded) if analyzer.model else None
    if rules is None:
        rules = analyzer.rules(model, spec_path)
    for rule in rules:
        if analyzer.attr and getattr(rule, analyzer.attr, None) is None:
            setattr(rule, analyzer.attr, model)
        if spec_path is not None and hasattr(rule, "spec_path"):
            rule.spec_path = spec_path
    return run_rules(loaded.project, rules, loaded.parse_violations,
                     loaded.n_files, known_codes())


def run_check(
    paths: Sequence,
    root: Path | None = None,
    context_paths: Sequence | None = None,
    tools: Sequence | None = None,
    spec_path: Path | None = None,
) -> CheckReport:
    """Run every analyzer (or ``tools``) over ``paths`` on one parse.

    ``tools`` restricts the run to a subset of :data:`TOOL_NAMES`
    (order is normalized to suite order).  ``spec_path`` goes to the
    selected analyzers that own a spec.  The shared index is loaded
    first, so even the first analyzer's run is a cache hit.
    """
    from repro.tools.flow.runner import detect_context_paths

    if context_paths is None:
        context_paths = detect_context_paths(paths)
    selected = [analyzer for analyzer in ANALYZERS
                if tools is None or analyzer.name in set(tools)]
    loaded = _load(paths, root, context_paths)
    report = CheckReport(n_files=loaded.n_files)
    for analyzer in selected:
        try:
            report.results[analyzer.name] = run_analyzer(
                analyzer.name, paths, root=root, context_paths=context_paths,
                spec_path=spec_path if analyzer.spec else None)
        except Exception:
            report.crashes[analyzer.name] = traceback.format_exc()
    return report
