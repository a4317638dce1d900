"""The shape analyzer through ``repro check --tools shape``: exit codes."""

import io
import json
import subprocess
import sys
from pathlib import Path

import repro.cli
from repro.tools.check.cli import main as check_main
from repro.tools.lint.reporters import render_text

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "shape_fixtures"

S_CODES = ("S401", "S402", "S403", "S404", "S405", "S406")


def run_main(argv):
    out = io.StringIO()
    code = check_main([*argv, "--tools", "shape"], out=out)
    return code, out.getvalue()


def shape_report(output):
    return json.loads(output)["tools"]["shape"]


def test_list_rules_prints_all_six_rules():
    code, output = run_main(["--list-rules"])
    assert code == 0
    for rule_code in S_CODES:
        assert rule_code in output


def test_nonexistent_path_is_a_usage_error():
    code, _ = run_main(["definitely/not/a/path"])
    assert code == 2


def test_clean_tree_exits_zero(source_tree):
    result = source_tree.report.results["shape"]
    assert result.exit_code == 0
    assert "0 violations" in render_text(result)


def test_violating_fixture_exits_one_with_json_report():
    code, output = run_main([
        str(FIXTURES / "s401_shape"), "--format", "json",
    ])
    assert code == 1
    report = shape_report(output)
    assert report["summary"]["exit_code"] == 1
    codes = {v["code"] for v in report["violations"]}
    assert codes == {"S401"}
    assert all(v["path"].endswith("bad.py")
               for v in report["violations"])


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.check", "--list-rules",
         "--tools", "shape"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "S401" in proc.stdout


def test_repro_cli_shape_subcommand():
    out = io.StringIO()
    code = repro.cli.main(["check", "--tools", "shape", "--list-rules"],
                          out=out)
    assert code == 0
    assert "S406" in out.getvalue()


def test_shape_suppression_with_reason_is_honored(tmp_path):
    source = FIXTURES / "s403_alias" / "bad.py"
    patched = tmp_path / "patched.py"
    patched.write_text(
        source.read_text(encoding="utf-8").replace(
            "X[X > limit] = limit  # mutates the caller's buffer in place",
            "X[X > limit] = limit  # repro: disable=S403 -- "
            "fixture documents the out-parameter contract",
        ),
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path), "--show-suppressed"])
    assert code == 1  # the view/cache/sort mutations still fire
    assert "suppressed: fixture documents the out-parameter" in output
    assert output.count("S403") == 4


def test_shape_suppression_without_reason_is_r000(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import numpy as np\n\n\n"
        "def idle():\n"
        "    pass  # repro: disable=S401\n",
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path)])
    assert code == 1
    assert "R000" in output and "justification" in output


def test_update_spec_round_trips(tmp_path):
    pkg = FIXTURES / "s405_contract" / "pkg"
    spec = tmp_path / "spec.py"

    update = ["--update-spec", "shape", "--spec", str(spec), str(pkg)]
    code, output = run_main(update)
    assert code == 0
    assert "wrote derived array contracts of 1 estimator(s)" in output
    first = spec.read_text(encoding="utf-8")
    assert "TinyCentroid" in first and "'predict'" in first

    # A check run against the freshly written spec reports no drift.
    code, output = run_main([
        str(pkg), "--spec", str(spec), "--format", "json",
    ])
    report = shape_report(output)
    assert "S405" not in {v["code"] for v in report["violations"]}

    # Regenerating is a fixed point: byte-identical output.
    code, _ = run_main(update)
    assert code == 0
    assert spec.read_text(encoding="utf-8") == first
