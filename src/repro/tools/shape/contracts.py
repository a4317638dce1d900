"""Derived per-estimator array contracts for the shape analyzer (S405).

The paper's Table 1 fixes *what* each model family computes; this module
derives the array-level analogue of *how* it is exchanged: for every
``BaseEstimator`` subclass in the analyzed tree, the symbolic input
shapes its ``fit``/``predict``/``predict_proba``/``transform`` methods
expect, which array parameters they route through a validator
(``check_X_y``/``check_array``/``asarray``, directly or via a resolved
in-project call), and the symbolic shape/dtype of what they return.

The derived table is checked in as ``array_contracts_spec.py`` next to
this module — a plain-literal Python file so it diffs readably and loads
via ``ast.literal_eval`` (no import, which lets ``--update-spec``
rewrite and re-check it within one process).  S405 compares fresh
derivation against the checked-in spec; an intentional change to an
estimator's array contract is recorded by re-running ``repro check
--update-spec shape``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.tools.shape.arrays import ShapeModel

__all__ = [
    "DEFAULT_SPEC_PATH",
    "SPEC_METHODS",
    "derive_contracts",
    "load_spec",
    "render_spec",
    "write_spec",
]

#: Methods whose array contract the spec records, in render order.
SPEC_METHODS = ("fit", "predict", "predict_proba", "transform")

#: Where the checked-in spec lives.
DEFAULT_SPEC_PATH = Path(__file__).resolve().parent / \
    "array_contracts_spec.py"

#: Per-method entry keys, in render order.
_ENTRY_KEYS = ("in", "validates", "out", "out_dtype")

_HEADER = '''\
"""Checked-in estimator array contracts (regenerate: ``repro shape --update-spec``).

The array-level analogue of the paper's Table 1: for every estimator in
the analyzed tree, the symbolic input shapes of its
``fit``/``predict``/``predict_proba``/``transform`` methods over the
(samples, features, estimators, iterations, classes) dimension
vocabulary, which array parameters each method routes through a
validator (``in`` lists the array parameters, ``validates`` the subset
reaching ``check_X_y``/``check_array``/``asarray`` directly or through a
resolved in-project call), and the derived symbolic shape/dtype of the
return value (``'self'`` for fluent ``fit``, ``None`` when the
interpreter cannot name it).  S405 fails when a fresh derivation
disagrees with this file, so intentional contract changes are
re-recorded here and show up in review as a spec diff.

This file is data, not code: edit it only via ``--update-spec``.
"""

__all__ = ["ARRAY_CONTRACTS"]

'''


def _return_summary(fn) -> tuple:
    """``(out, out_dtype)`` for one function's recorded return facts."""
    if fn.returns_self:
        return ("self", None)
    shapes = {f.shape for f in fn.returns
              if f is not None and f.shape is not None}
    dtypes = {f.dtype for f in fn.returns
              if f is not None and f.dtype is not None}
    out = shapes.pop() if len(shapes) == 1 else None
    out_dtype = dtypes.pop() if len(dtypes) == 1 else None
    return (out, out_dtype)


def derive_contracts(model: ShapeModel) -> dict:
    """Map ``module.Class`` -> ``{method: contract}`` for estimators.

    Covers public ``BaseEstimator`` subclasses defined in the analyzed
    modules (context modules are excluded) that implement ``fit``; each
    method entry records the seeded array parameters (``in``), the
    validated subset (``validates``, sorted tuple), and the return
    summary (``out``/``out_dtype``).
    """
    index = model.index
    estimator_names = index.project.subclasses_of(["BaseEstimator"])
    analyzed = {m.dotted_name for m in index.project.modules}
    validated = model.validated_params()
    spec: dict = {}
    for (module_name, class_name) in sorted(index.classes):
        if class_name not in estimator_names or class_name.startswith("_"):
            continue
        if module_name not in analyzed:
            continue
        if (module_name, f"{class_name}.fit") not in index.functions:
            continue
        methods: dict = {}
        for method in SPEC_METHODS:
            key = (module_name, f"{class_name}.{method}")
            if key not in index.functions or key not in model.functions:
                continue
            fn = model.functions[key]
            arrays = dict(sorted(fn.param_arrays.items()))
            out, out_dtype = _return_summary(fn)
            methods[method] = {
                "in": arrays,
                "validates": tuple(sorted(
                    set(arrays) & validated.get(key, set()))),
                "out": out,
                "out_dtype": out_dtype,
            }
        spec[f"{module_name}.{class_name}"] = methods
    return spec


def render_spec(spec: dict) -> str:
    """The checked-in file's full text for ``spec`` (stable ordering)."""
    lines = [_HEADER, "ARRAY_CONTRACTS = {"]
    for class_path in sorted(spec):
        lines.append(f"    {class_path!r}: {{")
        for method in SPEC_METHODS:
            if method not in spec[class_path]:
                continue
            entry = spec[class_path][method]
            lines.append(f"        {method!r}: {{")
            for key in _ENTRY_KEYS:
                lines.append(f"            {key!r}: {entry[key]!r},")
            lines.append("        },")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_spec(spec: dict, path: Path = DEFAULT_SPEC_PATH) -> None:
    """Rewrite the checked-in spec file with ``spec``."""
    path.write_text(render_spec(spec), encoding="utf-8")


def load_spec(path: Path = DEFAULT_SPEC_PATH) -> dict | None:
    """The ``ARRAY_CONTRACTS`` literal from ``path``, or ``None``.

    Reads the file as an AST literal rather than importing it, so a
    just-rewritten spec is visible immediately and a broken spec cannot
    crash the analyzer (S405 reports it instead).
    """
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "ARRAY_CONTRACTS":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        return None
                    return value if isinstance(value, dict) else None
    return None
