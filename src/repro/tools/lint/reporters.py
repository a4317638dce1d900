"""Output formats for analyzer results (``repro check --format``)."""

from __future__ import annotations

import json
from typing import Callable

from repro.tools.lint.engine import LintResult, Violation

__all__ = ["REPORTERS", "render_json", "render_text"]


def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    """GCC-style one-line-per-violation report plus a summary line."""
    lines = []
    for violation in result.violations:
        if violation.suppressed and not show_suppressed:
            continue
        marker = " (suppressed: %s)" % violation.reason if violation.suppressed else ""
        lines.append(
            f"{violation.location}: {violation.code} "
            f"{violation.message}{marker}"
        )
    n_bad = len(result.unsuppressed)
    n_hidden = len(result.suppressed)
    lines.append(
        f"{n_bad} violation{'s' if n_bad != 1 else ''} "
        f"({n_hidden} suppressed) in {result.n_files} "
        f"file{'s' if result.n_files != 1 else ''}"
    )
    return "\n".join(lines)


def _violation_record(violation: Violation) -> dict:
    return {
        "code": violation.code,
        "message": violation.message,
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "suppressed": violation.suppressed,
        "reason": violation.reason,
    }


def render_json(result: LintResult, show_suppressed: bool = False) -> str:
    """Machine-readable report (stable key order) for CI consumption."""
    violations = [
        _violation_record(v) for v in result.violations
        if show_suppressed or not v.suppressed
    ]
    payload = {
        "violations": violations,
        "summary": {
            "files": result.n_files,
            "violations": len(result.unsuppressed),
            "suppressed": len(result.suppressed),
            "exit_code": result.exit_code,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


#: Reporter name -> renderer, as selected by ``repro check --format``.
REPORTERS: dict[str, Callable] = {
    "text": render_text,
    "json": render_json,
}
