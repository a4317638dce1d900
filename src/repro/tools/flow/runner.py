"""Where the analyzers find their context modules.

Context modules (benchmarks, examples, tests) are parsed alongside the
analyzed tree so the dead-code rule can see what they reference, but
they are never themselves reported on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

__all__ = [
    "CONTEXT_DIR_NAMES",
    "detect_context_paths",
]

#: Sibling directories of the analyzed package that count as liveness
#: roots for F104 (they consume the API without being part of it).
CONTEXT_DIR_NAMES = ("benchmarks", "examples", "tests")


def detect_context_paths(paths: Sequence) -> list:
    """Locate benchmarks/examples/tests next to the analyzed tree.

    Walks up from the first analyzed path to the enclosing project root
    (marked by ``pyproject.toml``) and returns whichever of
    :data:`CONTEXT_DIR_NAMES` exist there.  Returns ``[]`` when no project
    root is found, or when the analyzed tree lies inside one of those
    directories, so fixture trees analyzed in isolation get no implicit
    context.
    """
    for raw in paths:
        start = Path(raw).resolve()
        if start.is_file():
            start = start.parent
        for candidate in (start, *start.parents):
            if (candidate / "pyproject.toml").is_file():
                if any(start.is_relative_to(candidate / name)
                       for name in CONTEXT_DIR_NAMES):
                    return []
                return [
                    candidate / name
                    for name in CONTEXT_DIR_NAMES
                    if (candidate / name).is_dir()
                ]
    return []
