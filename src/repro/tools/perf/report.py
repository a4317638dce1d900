"""Ranked hotspot section of the perf report (``--top`` / ``--profile``).

Static findings are not all equally urgent: a quadratic-growth site
beats an unhoisted ``np.log``, and a depth-3 nest beats a depth-1 pass.
:func:`rank_hotspots` orders the run's violations by a base severity per
rule code scaled by the loop-nest depth the rule encoded in its message
(the ``depth-N`` token), and — when the user supplies ``--profile`` — by
observed time: a cProfile-derived JSON re-weights every finding by the
cumulative seconds of the function it lands in, so the report's head is
"statically suspicious *and* actually hot".

The profile format is deliberately tiny — a JSON array of
``{"file": ..., "line": ..., "cumtime": ...}`` function records —
produced from any cProfile dump with :func:`convert_pstats`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "convert_pstats",
    "load_profile",
    "rank_hotspots",
    "render_hotspots",
]

#: Base severity per rule code (see the catalogue in ``rules.py``).
_BASE_WEIGHT = {
    "P302": 5.0,
    "P304": 4.0,
    "P301": 3.0,
    "P306": 3.0,
    "P303": 2.0,
    "P305": 1.0,
}

_DEPTH = re.compile(r"depth-(\d+)")


def load_profile(path: Path) -> list:
    """Function-time records from a ``--profile`` JSON file.

    Accepts either a bare array or ``{"entries": [...]}``; each record
    needs ``file`` (path, matched by suffix), ``line`` (the function's
    def line) and ``cumtime`` (cumulative seconds).  Malformed records
    are dropped rather than fatal — a partial profile still ranks.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, dict):
        payload = payload.get("entries", [])
    records = []
    for entry in payload if isinstance(payload, list) else []:
        try:
            records.append({
                "file": str(entry["file"]),
                "line": int(entry["line"]),
                "cumtime": float(entry["cumtime"]),
            })
        except (KeyError, TypeError, ValueError):
            continue
    return records


def convert_pstats(dump_path: Path) -> list:
    """Profile records (see :func:`load_profile`) from a cProfile dump."""
    import pstats

    stats = pstats.Stats(str(dump_path))
    records = []
    for (filename, lineno, _name), row in stats.stats.items():
        cumtime = row[3]
        if filename.startswith("<") or cumtime <= 0:
            continue
        records.append(
            {"file": filename, "line": lineno, "cumtime": cumtime}
        )
    return records


def _observed_time(violation, profile: list) -> float:
    """Cumtime of the profiled function enclosing ``violation``, if any.

    A record matches when its file path ends with the violation's path
    (or vice versa — profiles carry absolute paths, findings repo-
    relative ones) and its def line is the greatest one at or above the
    finding's line.
    """
    best_line, best_time = -1, 0.0
    for record in profile:
        if not (record["file"].endswith(violation.path)
                or violation.path.endswith(record["file"])):
            continue
        if record["line"] <= violation.line and record["line"] > best_line:
            best_line, best_time = record["line"], record["cumtime"]
    return best_time


def rank_hotspots(violations: list, profile: list | None = None) -> list:
    """``(score, violation)`` pairs, highest score first.

    Score = base weight of the rule code × the nest depth its message
    reports (``depth-N``, default 1) × ``(1 + cumtime)`` when a profile
    record covers the finding.  Suppressed findings are excluded — a
    documented suppression is a closed case, not a hotspot.
    """
    ranked = []
    for violation in violations:
        if violation.suppressed:
            continue
        score = _BASE_WEIGHT.get(violation.code, 1.0)
        match = _DEPTH.search(violation.message)
        if match:
            score *= max(1, int(match.group(1)))
        if profile:
            score *= 1.0 + _observed_time(violation, profile)
        ranked.append((score, violation))
    ranked.sort(key=lambda pair: (-pair[0], pair[1].path, pair[1].line,
                                  pair[1].code))
    return ranked


def render_hotspots(ranked: list, top: int) -> str:
    """The ``--top N`` hotspot section of the perf report."""
    shown = ranked[:top]
    lines = ["", f"top {len(shown)} hotspot(s) of {len(ranked)} finding(s):"]
    for position, (score, violation) in enumerate(shown, start=1):
        lines.append(f"{position:3d}. [{score:8.2f}] {violation.code} "
                     f"{violation.location}  {violation.message}")
    return "\n".join(lines)
