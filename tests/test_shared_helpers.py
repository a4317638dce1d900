"""Structural gate: the analyzers share one copy of each AST helper.

The six analyzers of ``repro check`` read import tables, source text,
names and checked-in specs the same way, and two copies of one such
decision drift apart (lint once kept an import table that skipped the
relative imports the flow index resolves).  The gate parses
``src/repro/tools`` and counts the modules defining each helper, under
every name its copies have gone by.
"""

import ast
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "src" / "repro" / "tools"

HELPERS = {
    "import table": {"import_bindings", "_import_bindings"},
    "source text": {"safe_unparse", "_safe_unparse"},
    "names read": {"names_in", "_names_in"},
    "names stored": {"store_names", "_store_names"},
    "numpy aliases": {"numpy_aliases", "_numpy_aliases"},
    "numpy attribute": {"numpy_attr", "_np_name", "_is_numpy_func"},
    "call-target map": {"call_targets", "_call_targets", "_call_target_map"},
    "spec anchoring": {"spec_relpath", "_spec_relpath"},
}


def _calls_literal_eval(function: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "literal_eval"
        for node in ast.walk(function)
    )


def _defining_modules() -> dict:
    """Helper -> modules defining it; a literal-spec reader is any
    function calling ``ast.literal_eval``."""
    found = {helper: set() for helper in (*HELPERS, "literal-spec reader")}
    for path in sorted(TOOLS.rglob("*.py")):
        module = str(path.relative_to(TOOLS))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for helper, names in HELPERS.items():
                if node.name in names:
                    found[helper].add(module)
            if _calls_literal_eval(node):
                found["literal-spec reader"].add(module)
    return found


def test_each_shared_helper_is_defined_in_one_module():
    found = _defining_modules()
    assert all(found.values()), found  # the gate still sees every helper
    duplicated = {helper: sorted(modules)
                  for helper, modules in found.items() if len(modules) > 1}
    assert duplicated == {}
