"""Every fixture report, pinned by digest.

``report_digests.json`` holds, for each analyzer fixture directory, the
sha256 of the ``repro check`` json and text reports (``--show-suppressed``),
for the whole suite and for each ``--tools`` alone.  The reports are
rendered from the repository root, so their paths are relative; the
analyzers' own spec paths (which F105 and W501 messages name) read
``<repro>/...``.  A change that is meant to leave every report alone
keeps this test green; a change that alters a report rewrites the
manifest and says why::

    PYTHONPATH=src python tests/tools/test_report_digests.py
"""

import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import repro
from repro.tools.check import TOOL_NAMES
from repro.tools.check.cli import main
from repro.tools.indexing import clear_index_cache

REPO_ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).resolve().parent / "report_digests.json"
PACKAGE = Path(repro.__file__).resolve().parent

#: Each analyzer fixture directory, relative to the repository root.
FIXTURE_DIRS = sorted(
    path.relative_to(REPO_ROOT).as_posix()
    for path in (REPO_ROOT / "tests" / "tools").glob("*_fixtures/*")
    if path.is_dir() and path.name != "__pycache__"
)

#: Report name -> extra ``repro check`` arguments.
REPORTS = {
    f"{selection}.{fmt}": [
        "--format", fmt, "--show-suppressed",
        *(() if selection == "all" else ("--tools", selection)),
    ]
    for selection in ("all", *TOOL_NAMES)
    for fmt in ("json", "text")
}


def _render(fixture: str, extra: list) -> str:
    out = io.StringIO()
    main([fixture, *extra], out=out)
    return out.getvalue().replace(str(PACKAGE), "<repro>")


def digests(fixture: str) -> dict:
    """Report name -> sha256 of that report over ``fixture``; run from
    the repository root."""
    return {
        name: hashlib.sha256(_render(fixture, extra).encode()).hexdigest()
        for name, extra in REPORTS.items()
    }


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_fixture_dir(manifest):
    assert sorted(manifest) == FIXTURE_DIRS
    assert all(sorted(entry) == sorted(REPORTS) for entry in manifest.values())


@pytest.mark.parametrize("fixture", FIXTURE_DIRS)
def test_fixture_reports_match_their_digests(manifest, fixture, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    clear_index_cache()
    assert digests(fixture) == manifest[fixture]


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    table = {fixture: digests(fixture) for fixture in FIXTURE_DIRS}
    MANIFEST.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} digests for "
          f"{len(table)} fixture dirs to {MANIFEST}", file=sys.stderr)
