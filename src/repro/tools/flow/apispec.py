"""Public-API surface extraction and drift detection for F105.

The API surface is everything a downstream measurement script can import:
each public module's ``__all__``, the signature of every exported
function/class defined there, and — because sweeps construct estimators
blindly — the constructor parameter list of every ``BaseEstimator``
subclass.  The surface is serialized to ``api_spec.json`` next to this
module; the flow analyzer diffs the tree against it and reports any
drift, and ``repro check --update-spec flow`` rewrites it for intentional
changes
(reviewed like any other spec edit).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.tools.flow.graph import FlowIndex

__all__ = [
    "DEFAULT_SPEC_PATH",
    "diff_surfaces",
    "extract_surface",
    "load_spec",
    "write_spec",
]

#: Where the checked-in API surface lives.
DEFAULT_SPEC_PATH = Path(__file__).resolve().parent / "api_spec.json"


def _is_public_module(name: str) -> bool:
    parts = name.split(".")
    return all(not p.startswith("_") for p in parts)


def _render_default(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed tree
        return "<?>"


def _render_signature(fn: ast.AST) -> str:
    """Canonical, order-preserving signature string for a def node."""
    args = fn.args
    rendered: list[str] = []
    positional = [*args.posonlyargs, *args.args]
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        piece = arg.arg
        if default is not None:
            piece += f"={_render_default(default)}"
        rendered.append(piece)
    if args.posonlyargs:
        rendered.insert(len(args.posonlyargs), "/")
    if args.vararg is not None:
        rendered.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        rendered.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        piece = arg.arg
        if default is not None:
            piece += f"={_render_default(default)}"
        rendered.append(piece)
    if args.kwarg is not None:
        rendered.append(f"**{args.kwarg.arg}")
    return "(" + ", ".join(rendered) + ")"


def _literal_all(tree: ast.Module) -> list | None:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            value = node.value
            if isinstance(value, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.elts
            ):
                return [e.value for e in value.elts]
    return None


def extract_surface(index: FlowIndex, estimator_roots=("BaseEstimator",)) -> dict:
    """The tree's public API surface as a JSON-serializable dict."""
    estimators = index.project.subclasses_of(set(estimator_roots))
    estimators |= set(estimator_roots)
    modules: dict[str, dict] = {}
    for name, module in index.modules.items():
        if not _is_public_module(name) or module.path.name == "__main__.py":
            continue
        exported = _literal_all(module.tree)
        if exported is None:
            continue
        symbols: dict[str, dict] = {}
        for export in sorted(set(exported)):
            local = index.symbols.get((name, export))
            if local is None or local.kind == "import":
                origin = index.resolve_symbol(name, export)
                record: dict = {"kind": "reexport"}
                if origin is not None:
                    record["from"] = origin.module_name
                symbols[export] = record
                continue
            if local.kind == "function":
                info = index.functions.get((name, export))
                symbols[export] = {
                    "kind": "function",
                    "signature": _render_signature(info.node) if info else "(?)",
                }
            elif local.kind == "class":
                record = {"kind": "class"}
                init = index.class_init(name, export)
                if init is not None:
                    record["signature"] = _render_signature(init.node)
                if export in estimators and export not in estimator_roots:
                    record["estimator_params"] = (
                        init.param_names() if init is not None else []
                    )
                symbols[export] = record
            else:
                symbols[export] = {"kind": "constant"}
        modules[name] = {
            "exports": sorted(set(exported)),
            "symbols": symbols,
        }
    return {"version": 1, "modules": modules}


def load_spec(path: Path) -> dict | None:
    """Parse a checked-in spec; None when absent or unreadable."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def write_spec(surface: dict, path: Path) -> None:
    """Serialize a surface deterministically (sorted keys, 2-space indent)."""
    Path(path).write_text(
        json.dumps(surface, indent=2, sort_keys=True) + "\n", encoding="utf-8",
    )


def diff_surfaces(spec: dict, current: dict) -> list:
    """Drift between the checked-in spec and the tree.

    Returns ``(module_name_or_None, symbol_or_None, message)`` triples;
    the caller anchors them to source locations.
    """
    drift: list = []
    spec_modules = spec.get("modules", {})
    current_modules = current.get("modules", {})
    for name in sorted(set(spec_modules) - set(current_modules)):
        drift.append((None, None,
                      f"public module {name!r} is recorded in api_spec.json "
                      "but no longer exists (or lost its __all__)"))
    for name in sorted(set(current_modules) - set(spec_modules)):
        drift.append((name, None,
                      f"public module {name!r} is not recorded in "
                      "api_spec.json; run 'repro check --update-spec flow' "
                      "if the addition is intentional"))
    for name in sorted(set(spec_modules) & set(current_modules)):
        want, got = spec_modules[name], current_modules[name]
        missing = sorted(set(want["exports"]) - set(got["exports"]))
        added = sorted(set(got["exports"]) - set(want["exports"]))
        if missing:
            drift.append((name, None,
                          f"{name}.__all__ dropped exported names {missing} "
                          "present in api_spec.json"))
        if added:
            drift.append((name, None,
                          f"{name}.__all__ gained names {added} not in "
                          "api_spec.json; run 'repro check --update-spec "
                          "flow' if the addition is intentional"))
        for symbol in sorted(set(want["symbols"]) & set(got["symbols"])):
            before, after = want["symbols"][symbol], got["symbols"][symbol]
            # A changed kind implies the rest changed; report it alone.
            fields = (("kind",) if before.get("kind") != after.get("kind")
                      else ("signature", "estimator_params"))
            for field in fields:
                if before.get(field) != after.get(field):
                    drift.append((name, symbol,
                                  f"{name}.{symbol}: {field} changed from "
                                  f"{before.get(field)!r} to "
                                  f"{after.get(field)!r} (api_spec.json)"))
    return drift
