"""The lint analyzer — AST-based invariant checker for the reproduction.

The paper's measurement protocol only holds if a handful of invariants
hold everywhere in the codebase: every RNG is threaded from an explicit
seed (§3.2's 1.7M-measurement protocol), every estimator honors the
shared fit/predict contract that configuration sweeps rely on blindly,
every vendor module encodes Table 1's control surface verbatim, and no
exception handler silently swallows a failed configuration.  This package
turns those prose contracts into machine-checked lint rules.

Importable API::

    from repro.tools.check import run_analyzer
    result = run_analyzer("lint", ["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro check --tools lint [PATHS...] [--format text|json]

Findings are suppressed per line with a justified comment::

    risky()  # repro: disable=R001 -- documented opt-in, see DESIGN.md
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Sequence

# Importing the rules module registers every built-in rule.
import repro.tools.lint.rules as rules  # noqa: F401  (registration side effect)
from repro.tools.lint.engine import (
    ENGINE_CODE,
    LintResult,
    ModuleInfo,
    Project,
    Rule,
    RULE_REGISTRY,
    Suppression,
    Violation,
    register_rule,
)
from repro.tools.lint.reporters import REPORTERS, render_json, render_text
from repro.tools.lint.rules import default_rules

__all__ = [
    "ENGINE_CODE",
    "LintResult",
    "ModuleInfo",
    "Project",
    "REPORTERS",
    "RULE_REGISTRY",
    "Rule",
    "Suppression",
    "Violation",
    "default_rules",
    "lint_source",
    "register_rule",
    "render_json",
    "render_text",
    "rules",
]


def lint_source(
    source: str,
    filename: str = "<string>",
    rules: Sequence | None = None,
) -> LintResult:
    """Lint one in-memory source snippet (used by the rule unit tests)."""
    from repro.tools.check import known_codes
    from repro.tools.lint.engine import parse_suppressions, run_rules

    if rules is None:
        rules = default_rules()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return LintResult(violations=[Violation(
            code=ENGINE_CODE,
            message=f"could not parse file: {exc.msg}",
            path=filename, line=exc.lineno or 1,
        )], n_files=1)
    module = ModuleInfo(
        path=Path(filename), relpath=filename, source=source, tree=tree,
        suppressions=parse_suppressions(source),
    )
    return run_rules(Project(modules=[module]), rules, (), 1, known_codes())
