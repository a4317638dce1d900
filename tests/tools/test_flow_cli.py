"""The flow analyzer through ``repro check --tools flow``."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import repro.cli
from repro.tools.check.cli import main as check_main
from repro.tools.lint.reporters import render_text

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def run_main(argv):
    out = io.StringIO()
    code = check_main([*argv, "--tools", "flow"], out=out)
    return code, out.getvalue()


def flow_report(output):
    return json.loads(output)["tools"]["flow"]


def test_list_rules_prints_all_five_families():
    code, output = run_main(["--list-rules"])
    assert code == 0
    for rule_code in ("F101", "F102", "F103", "F104", "F105"):
        assert rule_code in output


def test_nonexistent_path_is_a_usage_error():
    code, _ = run_main(["definitely/not/a/path"])
    assert code == 2


def test_clean_tree_exits_zero(source_tree):
    result = source_tree.report.results["flow"]
    assert result.exit_code == 0
    assert "0 violations" in render_text(result)


def test_violating_fixture_exits_one_with_json_report(tmp_path):
    # Analyze only the F103 fixture: self-contained, no spec needed for
    # the other families because F105 needs --spec to find drift.
    spec = tmp_path / "spec.json"
    code, _ = run_main([
        str(FIXTURES / "f103_seed"), "--update-spec", "flow",
        "--spec", str(spec),
    ])
    assert code == 0 and spec.exists()
    code, output = run_main([
        str(FIXTURES / "f103_seed"), "--format", "json", "--spec", str(spec),
    ])
    assert code == 1
    report = flow_report(output)
    assert report["summary"]["exit_code"] == 1
    codes = {v["code"] for v in report["violations"]}
    assert codes == {"F103"}


def test_update_spec_then_rerun_is_clean(tmp_path):
    spec = tmp_path / "api_spec.json"
    fixture = tmp_path / "tree"
    shutil.copytree(FIXTURES / "f105_drift" / "repro", fixture / "repro")
    code, output = run_main([str(fixture), "--update-spec", "flow",
                             "--spec", str(spec)])
    assert code == 0
    assert "wrote API surface" in output
    code, _ = run_main([str(fixture), "--spec", str(spec)])
    assert code == 0
    # Drift the tree: the rerun must now fail with F105.
    surface = fixture / "repro" / "learn" / "surface.py"
    surface.write_text(
        surface.read_text(encoding="utf-8").replace(
            "threshold=0.5", "threshold=0.75"
        ),
        encoding="utf-8",
    )
    code, output = run_main([
        str(fixture), "--spec", str(spec), "--format", "json",
    ])
    assert code == 1
    report = flow_report(output)
    assert any(v["code"] == "F105" for v in report["violations"])


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.check", "--list-rules",
         "--tools", "flow"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "F101" in proc.stdout


def test_repro_cli_flow_subcommand():
    out = io.StringIO()
    code = repro.cli.main(["check", "--tools", "flow", "--list-rules"],
                          out=out)
    assert code == 0
    assert "F104" in out.getvalue()


def test_show_suppressed_includes_justified_suppressions():
    code, output = run_main([
        str(FIXTURES / "f102_leak"), "--show-suppressed",
    ])
    assert code == 1  # the unsuppressed leaks in leaky.py
    assert "suppressed:" in output
    assert "calibration" in output
