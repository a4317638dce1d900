"""Shared, cached project loading for the static-analysis tools.

The six analyzers of ``repro check`` (lint, flow, race, perf, shape
and wire) all start the same way: discover the Python files, parse each
one exactly once, and (for the cross-module analyzers) build the shared
:class:`~repro.tools.flow.graph.FlowIndex` of symbols, imports, and
calls.  When the analyzers run from one process — ``repro check``, the
dogfood test gates, or a script driving them through
:func:`repro.tools.check.run_analyzer` — rebuilding those indexes per
tool doubles or triples the dominant cost of a run.

This module is the memoizing facade in front of that work: an
:class:`IndexedProject` bundles the parsed project, its parse-failure
violations, and the flow index, keyed by a *content fingerprint* of the
analyzed files (resolved path, mtime, size).  Editing any analyzed file
invalidates the entry, so a long-lived test session never sees a stale
index, while back-to-back flow and race runs over the same tree share
one parse and one index build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.tools.flow.graph import FlowIndex, build_index
from repro.tools.lint.engine import (
    Project,
    iter_python_files,
    load_module,
)

__all__ = [
    "IndexedProject",
    "clear_index_cache",
    "index_cache_info",
    "load_indexed_project",
]

#: Upper bound on memoized projects; the cache resets past this to keep
#: long pytest sessions (many fixture mini-trees) from accumulating ASTs.
_CACHE_LIMIT = 8

_CACHE: dict = {}
_STATS = {"hits": 0, "misses": 0}


@dataclass
class IndexedProject:
    """One parsed project plus the indexes every analyzer shares."""

    project: Project
    index: FlowIndex
    parse_violations: list = field(default_factory=list)
    n_files: int = 0
    _models: dict = field(default_factory=dict)

    @property
    def context_modules(self) -> list:
        """Benchmark/example/test modules parsed alongside the project."""
        return self.index.context_modules

    def memo(self, key: str, build):
        """``build()``'s result, computed once per cached entry.

        An analyzer's model (perf's loop nests, shape's array facts,
        wire's contract) lives here, so repeated runs over an unchanged
        tree share it the way every analyzer shares the parse.
        """
        if key not in self._models:
            self._models[key] = build()
        return self._models[key]


def _stat_entries(paths: Sequence) -> tuple:
    entries = []
    for path in iter_python_files(paths):
        stat = path.stat()
        entries.append((str(path.resolve()), stat.st_mtime_ns, stat.st_size))
    return tuple(entries)


def _fingerprint(paths: Sequence, root: Path | None,
                 context_paths: Sequence) -> tuple:
    return (
        _stat_entries(paths),
        _stat_entries(context_paths),
        str(Path(root).resolve()) if root is not None else None,
    )


def load_indexed_project(
    paths: Sequence,
    root: Path | None = None,
    context_paths: Sequence = (),
) -> IndexedProject:
    """Parse ``paths`` (+ context) once and memoize the shared indexes.

    ``context_paths`` must already be resolved by the caller (see
    :func:`repro.tools.flow.runner.detect_context_paths`); pass ``()``
    to analyze in isolation.  Two calls with identical arguments and
    unchanged files return the *same* :class:`IndexedProject` object —
    callers must treat the project and index as read-only and copy the
    parse-violation list before appending to it.
    """
    key = _fingerprint(paths, root, context_paths)
    cached = _CACHE.get(key)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1

    project = Project()
    parse_violations: list = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        module, violations = load_module(path, root=root)
        parse_violations.extend(violations)
        if module is not None:
            project.modules.append(module)

    analyzed = {module.path.resolve() for module in project.modules}
    context_modules = []
    for path in iter_python_files(context_paths):
        if path.resolve() in analyzed:
            continue
        module, _ = load_module(path, root=root)
        if module is not None:
            context_modules.append(module)

    loaded = IndexedProject(
        project=project,
        index=build_index(project, context_modules=context_modules),
        parse_violations=parse_violations,
        n_files=n_files,
    )
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = loaded
    return loaded


def clear_index_cache() -> None:
    """Drop every memoized project (and reset the hit/miss counters)."""
    _CACHE.clear()
    _STATS["hits"] = _STATS["misses"] = 0


def index_cache_info() -> dict:
    """Cache observability: ``{"entries": ..., "hits": ..., "misses": ...}``."""
    return {"entries": len(_CACHE), **_STATS}
