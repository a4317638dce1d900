"""Derived per-estimator complexity spec for the perf analyzer (P305).

The paper's Table 1 catalogues each model family's training/prediction
cost along the axes the service user controls (samples, features,
ensemble size, iterations).  This module derives the static analogue
from the loop model: for every ``BaseEstimator`` subclass in the
analyzed tree, the maximum loop-nest depth of its ``fit`` and
``predict`` paths along those axes, folded over the in-project call
graph.

The derived table is checked in as ``complexity_spec.py`` next to this
module — a plain-literal Python file so it diffs readably and loads
through :func:`repro.tools.specs.load_literal_spec` (no import, which
lets ``--update-spec`` rewrite and re-check it within one process).  P305 compares fresh derivation
against the checked-in spec; an intentional change to an estimator's
loop structure is recorded by re-running ``repro check --update-spec
perf``.
"""

from __future__ import annotations

from pathlib import Path

from repro.tools.perf.loops import LoopModel

__all__ = [
    "DEFAULT_SPEC_PATH",
    "SPEC_DIMS",
    "derive_complexity",
    "render_spec",
]

#: Axes recorded in the spec, mirroring the paper's Table 1 columns.
SPEC_DIMS = ("samples", "features", "estimators", "iterations")

#: Where the checked-in spec lives.
DEFAULT_SPEC_PATH = Path(__file__).resolve().parent / "complexity_spec.py"

#: Methods whose loop-nest depth the spec records.
_SPEC_METHODS = ("fit", "predict")

_HEADER = '''\
"""Checked-in loop-nest complexity spec (regenerate: ``repro check --update-spec perf``).

Static analogue of the paper's Table 1: for every estimator in the
analyzed tree, the derived maximum loop-nest depth of ``fit`` and
``predict`` along the (samples, features, estimators, iterations) axes,
folded over the in-project call graph by
:mod:`repro.tools.perf.complexity`.  A depth of 1 along ``samples``
reads as "one Python-level pass over the rows"; vectorized numpy work
does not count.  P305 fails when a fresh derivation disagrees with this
file, so intentional complexity changes are re-recorded here and show up
in review as a spec diff.

This file is data, not code: edit it only via ``--update-spec``.
"""

__all__ = ["COMPLEXITY"]

'''


def derive_complexity(model: LoopModel) -> dict:
    """Map ``module.Class`` -> ``{method: {dim: depth}}`` for estimators.

    Covers public ``BaseEstimator`` subclasses defined in the analyzed
    modules (context modules are excluded) that implement ``fit``; the
    recorded dims are restricted to :data:`SPEC_DIMS` with zero depths
    omitted, so a fully vectorized method appears as ``{}``.
    """
    index = model.index
    estimator_names = index.project.subclasses_of(["BaseEstimator"])
    analyzed = {m.dotted_name for m in index.project.modules}
    depths = model.depth_summary()
    spec: dict = {}
    for (module_name, class_name) in sorted(index.classes):
        if class_name not in estimator_names or class_name.startswith("_"):
            continue
        if module_name not in analyzed:
            continue
        if (module_name, f"{class_name}.fit") not in index.functions:
            continue
        methods: dict = {}
        for method in _SPEC_METHODS:
            key = (module_name, f"{class_name}.{method}")
            if key not in index.functions:
                continue
            summary = depths.get(key, {})
            methods[method] = {
                dim: summary[dim] for dim in SPEC_DIMS
                if summary.get(dim, 0) > 0
            }
        spec[f"{module_name}.{class_name}"] = methods
    return spec


def render_spec(spec: dict) -> str:
    """The checked-in file's full text for ``spec`` (stable ordering)."""
    lines = [_HEADER, "COMPLEXITY = {"]
    for class_path in sorted(spec):
        lines.append(f"    {class_path!r}: {{")
        for method in _SPEC_METHODS:
            if method not in spec[class_path]:
                continue
            dims = spec[class_path][method]
            inner = ", ".join(
                f"{dim!r}: {dims[dim]}" for dim in SPEC_DIMS if dim in dims
            )
            lines.append(f"        {method!r}: {{{inner}}},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"
