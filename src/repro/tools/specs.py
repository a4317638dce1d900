"""The checked-in literal specs the perf, shape and wire rules diff against.

``complexity_spec.py`` (``COMPLEXITY``), ``array_contracts_spec.py``
(``ARRAY_CONTRACTS``) and ``wire_spec.py`` (``WIRE_SPEC``) are plain
Python literals: they diff readably in review and load through
:func:`ast.literal_eval`, so nothing in them runs and a file that
``--update-spec`` just rewrote is read back at once.  Each analyzer
renders its own format; this module reads, writes and anchors them all,
and walks the estimator specs (P305, S405) one way.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterator

from repro.tools.lint.engine import Violation

__all__ = [
    "diff_estimator_spec",
    "load_literal_spec",
    "spec_relpath",
    "write_literal_spec",
]


def load_literal_spec(path: Path, name: str) -> dict | None:
    """The dict literal assigned to ``name`` in ``path``, or ``None``.

    ``None`` covers every way the spec can be unusable: a missing or
    undecodable file, a syntax error, no top-level assignment to
    ``name``, a value that is not a literal (``ast.literal_eval``
    raises ``ValueError`` or, for ``{[1]: 2}``, ``TypeError``) and a
    literal that is not a dict.  The first top-level assignment naming
    ``name`` among its targets wins, so ``A = B = {...}`` counts.
    """
    try:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets):
                value = ast.literal_eval(node.value)
                return value if isinstance(value, dict) else None
    except (OSError, SyntaxError, ValueError, TypeError):
        return None
    return None


def write_literal_spec(text: str, path: Path) -> None:
    """Write a rendered spec to ``path``."""
    Path(path).write_text(text, encoding="utf-8")


def spec_relpath(index, path: Path) -> str:
    """How findings name the spec file: its analyzed relpath, else ``path``."""
    for module in index.modules.values():
        try:
            if module.path.resolve() == path.resolve():
                return module.relpath
        except OSError:  # pragma: no cover - resolve on a dead path
            continue
    return str(path)


def diff_estimator_spec(rule, derived: dict, spec: dict | None,
                        message: Callable) -> Iterator[Violation]:
    """P305's and S405's findings: a fresh derivation against its spec.

    ``rule`` supplies the code, ``spec_path`` and the model's index;
    ``derived`` and ``spec`` map ``module.Class`` to an entry;
    ``spec`` is ``None`` when unreadable.  ``message(kind, class_path)``
    words each finding, where ``kind`` is ``"unreadable"`` (reported on
    line 1 of the spec), ``"absent"`` (class missing from the spec) or
    ``"differs"`` (both at the class's line), or ``"stale"`` (a spec
    entry of an analyzed module that derives nothing, on line 1 of the
    spec).
    """
    index = rule.model.index
    relpath = spec_relpath(index, rule.spec_path)
    if spec is None:
        yield Violation(code=rule.code, path=relpath, line=1,
                        message=message("unreadable", None))
        return
    for class_path in sorted(derived):
        module_name, _, class_name = class_path.rpartition(".")
        node = index.classes.get((module_name, class_name))
        line = node.lineno if node is not None else 1
        path = index.modules[module_name].relpath \
            if module_name in index.modules else relpath
        if class_path not in spec:
            kind = "absent"
        elif spec[class_path] != derived[class_path]:
            kind = "differs"
        else:
            continue
        yield Violation(code=rule.code, path=path, line=line,
                        message=message(kind, class_path))
    analyzed = {m.dotted_name for m in index.project.modules}
    for class_path in sorted(set(spec) - set(derived)):
        if class_path.rpartition(".")[0] in analyzed:
            yield Violation(code=rule.code, path=relpath, line=1,
                            message=message("stale", class_path))
