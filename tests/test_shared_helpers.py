"""Structural gate: shared decisions live in one copy.

The six analyzers of ``repro check`` read import tables, source text,
names and checked-in specs the same way, and two copies of one such
decision drift apart (lint once kept an import table that skipped the
relative imports the flow index resolves).  The gate parses
``src/repro/tools`` and counts the modules defining each helper, under
every name its copies have gone by.

The estimators of ``repro.learn`` likewise share one prediction gate
(the width check against ``n_features_in_``), one probability label
rule (``predict_proba(X)[:, 1] > 0.5``) and one logistic sigmoid (an
``exp`` of an input clipped to ``[-500, 500]``); the linear family's
copy of the width check once raised ``ValueError`` where every other
raised ``ValidationError``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TOOLS = SRC / "tools"
LEARN = SRC / "learn"

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


def _is_width(node: ast.AST) -> bool:
    """``<array>.shape[1]``."""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape"
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == 1)


def _compares_width(node: ast.Compare) -> bool:
    operands = [node.left, *node.comparators]
    return any(map(_is_width, operands)) and any(
        isinstance(operand, ast.Attribute)
        and operand.attr == "n_features_in_" for operand in operands
    )


def _is_label_rule(node: ast.Compare) -> bool:
    return (len(node.ops) == 1 and isinstance(node.ops[0], ast.Gt)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 0.5)


def _is_sigmoid(function: ast.AST) -> bool:
    """Calls ``exp`` and names the logistic clip bound 500."""
    nodes = list(ast.walk(function))
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exp" for node in nodes
    ) and any(
        isinstance(node, ast.Constant) and node.value == 500 for node in nodes
    )


def _learn_decisions() -> dict:
    """Decision -> where :mod:`repro.learn` makes it (modules for the
    width check, ``module:Class`` for the label rule, ``module:function``
    for the sigmoid)."""
    found = {"width check": set(), "label rule": set(), "sigmoid": set()}
    for path in sorted(LEARN.rglob("*.py")):
        module = str(path.relative_to(LEARN))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
                if _is_sigmoid(scope):
                    name = getattr(scope, "name", "<lambda>")
                    found["sigmoid"].add(f"{module}:{name}")
            elif isinstance(scope, ast.ClassDef):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Compare) and _is_label_rule(node):
                        found["label rule"].add(f"{module}:{scope.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and _compares_width(node):
                found["width check"].add(module)
    return found


def test_learn_makes_each_prediction_decision_once():
    found = _learn_decisions()
    assert {decision: sorted(where) for decision, where in found.items()} == {
        "width check": ["validation.py"],
        "label rule": ["base.py:ClassifierMixin"],
        "sigmoid": ["base.py:sigmoid"],
    }
