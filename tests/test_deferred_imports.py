"""Structural cold-start gates: what the entry points do not import.

scipy's statistics and optimizer are imported by the functions that call
them (spearman/kendall filters, the lbfgs solver, the Friedman and
Wilcoxon tests), so ``repro serve``, ``repro check`` and a campaign's
start-up never pay for them; likewise ``repro.cli`` loads none of the
cross-module analyzer packages.  The gates count modules, not seconds,
so they cannot flake on a slow host.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.service.sharding import DEFERRED_IMPORTS

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_MODULES = (
    "repro",
    "repro.platforms",
    "repro.serving",
    "repro.core.study",
    "repro.analysis",
    "repro.cli",
    "repro.tools.check",
)


def test_entry_points_import_no_deferred_module():
    script = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {DEFERRED_IMPORTS!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_repro_cli_imports_no_analyzer_package():
    # repro check imports each analyzer package when it runs, so the
    # campaign and serving commands never pay for them.
    script = (
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
        "('repro.tools.flow', 'repro.tools.race', 'repro.tools.perf', "
        "'repro.tools.shape', 'repro.tools.wire')))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
