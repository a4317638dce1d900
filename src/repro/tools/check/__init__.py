"""``repro check`` — the static-analysis suite, one parse, one front end.

The six analyzers (lint, flow, race, perf, shape, wire) are descriptors
in one registry, :data:`ANALYZERS`, and ``repro check`` is their only
command line.  One run loads the shared index once
(:mod:`repro.tools.indexing`), runs every selected analyzer over it,
merges the reports, and exits with the worst code across the suite on
the shared 0/1/2/3 taxonomy.  A crashing analyzer is captured on the
report as exit 3 without silencing the findings of the others.

Importable API::

    from repro.tools.check import run_analyzer, run_check
    report = run_check(["src/repro"])
    assert report.exit_code == 0, report.results
    result = run_analyzer("race", ["src/repro"])

Command line::

    repro check [PATHS...] [--format text|json] [--tools lint,wire]
    repro check --format json --artifacts-dir reports src/repro
    repro check --list-rules [--tools perf]
    repro check --update-spec perf [--spec PATH]
    repro check --tools perf --top 10 [--profile JSON]
    python -m repro.tools.check
"""

from __future__ import annotations

from repro.tools.check.runner import (
    ANALYZERS,
    TOOL_NAMES,
    Analyzer,
    CheckReport,
    Spec,
    get_analyzer,
    known_codes,
    run_analyzer,
    run_check,
)

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
