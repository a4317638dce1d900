"""Command-line front end: ``repro check`` / ``python -m repro.tools.check``.

The only command line of the static-analysis suite.  One invocation
runs the selected analyzers (``--tools``, default all six) over one
parse.  The merged report nests each tool's payload under its name, and
the exit code is the worst across the suite on the shared 0/1/2/3
taxonomy (a crashed tool contributes 3 without silencing the others).
``--artifacts-dir`` additionally writes one JSON report per tool.

The maintenance actions ride on the same command: ``--list-rules``
prints the selected analyzers' rules, ``--update-spec TOOL`` rewrites
that analyzer's checked-in spec from the tree (``--spec`` names another
spec file, for the one spec-owning analyzer selected), and ``--top N``
with an optional ``--profile`` appends perf's ranked hotspots to the
perf section of the text report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.tools.check.runner import ANALYZERS, TOOL_NAMES, run_check
from repro.tools.exitcodes import (
    EXIT_CLEAN,
    EXIT_CRASH,
    EXIT_USAGE,
    run_guarded,
)
from repro.tools.lint.reporters import REPORTERS, render_json, render_text

__all__ = [
    "DEFAULT_TARGET",
    "build_parser",
    "configure_parser",
    "main",
    "run_check_command",
]

#: Default analysis target: the package's own source tree.
DEFAULT_TARGET = Path(__file__).resolve().parents[2]

_SPEC_OWNERS = tuple(analyzer.name for analyzer in ANALYZERS if analyzer.spec)


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the check arguments to ``parser`` (shared with ``repro.cli``)."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=sorted(REPORTERS), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include justified suppressions in the report",
    )
    parser.add_argument(
        "--tools", metavar="NAMES",
        help="comma-separated subset of analyzers to run "
             f"(default: {','.join(TOOL_NAMES)})",
    )
    parser.add_argument(
        "--artifacts-dir", type=Path, metavar="DIR",
        help="also write per-tool JSON reports (<tool>-report.json) "
             "into DIR",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the selected analyzers' rule codes and exit",
    )
    parser.add_argument(
        "--update-spec", choices=_SPEC_OWNERS, metavar="TOOL",
        help="rewrite TOOL's checked-in spec from the analyzed tree "
             f"instead of checking against it ({', '.join(_SPEC_OWNERS)})",
    )
    parser.add_argument(
        "--spec", type=Path, metavar="PATH",
        help="spec file to check against or rewrite instead of the "
             "checked-in one (needs exactly one spec-owning analyzer "
             "selected)",
    )
    parser.add_argument(
        "--top", type=int, metavar="N", default=0,
        help="append perf's top-N ranked hotspots to the text report",
    )
    parser.add_argument(
        "--profile", type=Path, metavar="JSON",
        help="cProfile-derived JSON (see repro.tools.perf.report) used "
             "to re-rank the hotspots by observed time",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Build the standalone parser for ``python -m repro.tools.check``."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="run the static analyzers over one shared parse "
                    "with a merged report and worst-exit-code semantics",
    )
    return configure_parser(parser)


def _tool_payload(report, name, show_suppressed: bool) -> dict:
    if name in report.crashes:
        return {
            "error": report.crashes[name],
            "summary": {"exit_code": EXIT_CRASH},
        }
    return json.loads(render_json(report.results[name],
                                  show_suppressed=show_suppressed))


def _merged_json(report, show_suppressed: bool) -> str:
    tools = {
        name: _tool_payload(report, name, show_suppressed)
        for name in (*report.results, *report.crashes)
    }
    payload = {
        "tools": tools,
        "summary": {
            "files": report.n_files,
            "violations": sum(len(r.unsuppressed)
                              for r in report.results.values()),
            "suppressed": sum(len(r.suppressed)
                              for r in report.results.values()),
            "crashed": sorted(report.crashes),
            "exit_code": report.exit_code,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _merged_text(report, show_suppressed: bool, hotspots) -> str:
    sections = []
    for name, result in report.results.items():
        sections.append(f"== repro {name} ==")
        text = render_text(result, show_suppressed=show_suppressed)
        if name == "perf" and hotspots is not None:
            text += "\n" + hotspots(result)
        sections.append(text)
    for name in report.crashes:
        sections.append(f"== repro {name} ==")
        sections.append(f"CRASHED:\n{report.crashes[name]}")
    total = sum(len(r.unsuppressed) for r in report.results.values())
    suppressed = sum(len(r.suppressed) for r in report.results.values())
    crashed = f", {len(report.crashes)} tool(s) crashed" \
        if report.crashes else ""
    sections.append(
        f"check: {total} violation{'s' if total != 1 else ''} "
        f"({suppressed} suppressed) in {report.n_files} "
        f"file{'s' if report.n_files != 1 else ''} across "
        f"{len(report.results)} analyzer(s){crashed}"
    )
    return "\n".join(sections)


def _write_artifacts(report, directory: Path, show_suppressed: bool,
                     out) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in (*report.results, *report.crashes):
        path = directory / f"{name}-report.json"
        payload = _tool_payload(report, name, show_suppressed)
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", file=out)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _hotspot_renderer(args):
    """``result -> hotspot section`` for ``--top``, or ``None``.

    Raises ``OSError``/``ValueError`` for an unreadable ``--profile``.
    """
    if args.top <= 0 and args.profile is None:
        return None
    from repro.tools.perf.report import (
        load_profile,
        rank_hotspots,
        render_hotspots,
    )

    profile = None if args.profile is None else load_profile(args.profile)
    if args.top <= 0:
        return None
    return lambda result: render_hotspots(
        rank_hotspots(result.violations, profile=profile), args.top)


def _list_rules(selected, out) -> int:
    for analyzer in selected:
        for rule in analyzer.rules(None, None):
            print(f"{rule.code}  {rule.name:<{analyzer.name_width}} "
                  f"{rule.description}", file=out)
    return EXIT_CLEAN


def run_check_command(args: argparse.Namespace, out=None) -> int:
    """Execute a parsed check invocation; returns the exit code."""
    out = out or sys.stdout
    if args.update_spec:
        tools = [args.update_spec]
    elif args.tools:
        tools = [name.strip() for name in args.tools.split(",")
                 if name.strip()]
        unknown = sorted(set(tools) - set(TOOL_NAMES))
        if unknown:
            return _usage_error(f"unknown analyzer(s): {', '.join(unknown)} "
                                f"(choose from {', '.join(TOOL_NAMES)})")
    else:
        tools = TOOL_NAMES
    selected = [analyzer for analyzer in ANALYZERS if analyzer.name in tools]
    if args.list_rules:
        return _list_rules(selected, out)

    paths = args.paths or [DEFAULT_TARGET]
    for path in paths:
        if not Path(path).exists():
            return _usage_error(f"no such file or directory: {path}")
    if args.spec is not None and \
            len([analyzer for analyzer in selected if analyzer.spec]) != 1:
        return _usage_error(
            "--spec needs exactly one spec-owning analyzer selected "
            f"({', '.join(_SPEC_OWNERS)}) by --tools or --update-spec")
    try:
        hotspots = _hotspot_renderer(args)
    except (OSError, ValueError) as exc:
        return _usage_error(f"could not read profile {args.profile}: {exc}")

    if args.update_spec:
        return _update_spec(selected[0], paths, args.spec, out)
    report = run_check(paths, root=Path.cwd(), tools=tools,
                       spec_path=args.spec)
    if report.n_files == 0:
        return _usage_error("no python files found under the given paths")
    if args.artifacts_dir is not None:
        _write_artifacts(report, args.artifacts_dir,
                         args.show_suppressed, out)
    if args.format == "json":
        print(_merged_json(report, args.show_suppressed), file=out)
    else:
        print(_merged_text(report, args.show_suppressed, hotspots), file=out)
    return report.exit_code


def _update_spec(analyzer, paths, spec_path, out) -> int:
    from repro.tools.flow.runner import detect_context_paths
    from repro.tools.indexing import load_indexed_project

    loaded = load_indexed_project(paths, root=Path.cwd(),
                                  context_paths=detect_context_paths(paths))
    if loaded.n_files == 0:
        return _usage_error("no python files found under the given paths")
    print(analyzer.spec.update(loaded, spec_path or analyzer.spec.path),
          file=out)
    return EXIT_CLEAN


def main(argv=None, out=None) -> int:
    """Entry point for ``python -m repro.tools.check``."""
    args = build_parser().parse_args(argv)
    return run_guarded(run_check_command, args, out=out)
