"""Tests for ``repro check``: six analyzers, one registry, one front end."""

import dataclasses
import io
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
import repro.tools.check.runner as check_runner
from repro.tools.check import ANALYZERS, TOOL_NAMES, known_codes, run_check
from repro.tools.check.cli import main as check_main
from repro.tools.exitcodes import EXIT_CRASH, EXIT_FINDINGS, EXIT_USAGE

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent

ANALYZER_PARAMS = [pytest.param(analyzer, id=analyzer.name)
                   for analyzer in ANALYZERS]
SPEC_OWNERS = [pytest.param(analyzer, id=analyzer.name)
               for analyzer in ANALYZERS if analyzer.spec]

#: A fixture that trips each analyzer (every fixture trips lint's R005).
VIOLATING = {
    "lint": "flow_fixtures/f103_seed",
    "flow": "flow_fixtures/f103_seed",
    "race": "race_fixtures/c203_check_then_act",
    "perf": "perf_fixtures/p302_growth",
    "shape": "shape_fixtures/s401_shape",
    "wire": "wire_fixtures/w503_lifecycle",
}


def run_main(argv):
    out = io.StringIO()
    code = check_main(argv, out=out)
    return code, out.getvalue()


# -- the registry ---------------------------------------------------------


def test_registry_names_prefixes_and_specs():
    assert TOOL_NAMES == ("lint", "flow", "race", "perf", "shape", "wire")
    assert TOOL_NAMES == tuple(analyzer.name for analyzer in ANALYZERS)
    assert len({analyzer.prefix for analyzer in ANALYZERS}) == len(ANALYZERS)
    assert [analyzer.name for analyzer in ANALYZERS if analyzer.spec] == [
        "flow", "perf", "shape", "wire"]
    for analyzer in ANALYZERS:
        if analyzer.spec:
            assert analyzer.spec.path.is_file()


@pytest.mark.parametrize("analyzer", ANALYZER_PARAMS)
def test_list_rules_prints_each_rule_of_the_analyzer(analyzer):
    code, output = run_main(["--list-rules", "--tools", analyzer.name])
    assert code == 0
    codes = [line.split()[0] for line in output.splitlines()]
    assert codes == [rule.code for rule in analyzer.rules(None, None)]
    assert codes and all(c.startswith(analyzer.prefix) for c in codes)


def test_list_rules_defaults_to_the_whole_suite_in_order():
    code, output = run_main(["--list-rules"])
    assert code == 0
    codes = [line.split()[0] for line in output.splitlines()]
    assert codes == [rule.code for analyzer in ANALYZERS
                     for rule in analyzer.rules(None, None)]
    assert set(codes) | {"R000"} == known_codes()


@pytest.mark.parametrize("analyzer", ANALYZER_PARAMS)
def test_json_report_of_one_analyzer(analyzer):
    code, output = run_main([str(FIXTURES / VIOLATING[analyzer.name]),
                             "--tools", analyzer.name, "--format", "json"])
    assert code == EXIT_FINDINGS
    report = json.loads(output)
    assert list(report["tools"]) == [analyzer.name]
    payload = report["tools"][analyzer.name]
    assert payload["summary"]["exit_code"] == EXIT_FINDINGS
    assert payload["violations"]
    assert all(v["code"].startswith(analyzer.prefix)
               for v in payload["violations"])
    assert report["summary"]["violations"] == len(payload["violations"])


# -- the whole suite ------------------------------------------------------


def test_clean_tree_exits_zero_with_all_six_sections():
    code, output = run_main([str(REPO_SRC / "repro")])
    assert code == 0
    for name in TOOL_NAMES:
        assert f"== repro {name} ==" in output
    assert "across 6 analyzer(s)" in output


def test_merged_json_nests_every_tool_and_totals_the_summary():
    code, output = run_main([
        str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
        "--format", "json",
    ])
    assert code == EXIT_FINDINGS
    report = json.loads(output)
    assert sorted(report["tools"]) == sorted(TOOL_NAMES)
    assert report["summary"]["exit_code"] == EXIT_FINDINGS
    assert report["summary"]["crashed"] == []
    per_tool = sum(len(report["tools"][name]["violations"])
                   for name in TOOL_NAMES)
    assert report["summary"]["violations"] == per_tool
    wire = report["tools"]["wire"]
    assert {v["code"] for v in wire["violations"]} == {"W503"}


def test_tools_subset_runs_only_the_named_analyzers():
    code, output = run_main([
        str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
        "--tools", "lint,wire", "--format", "json",
    ])
    report = json.loads(output)
    assert sorted(report["tools"]) == ["lint", "wire"]


def test_artifacts_dir_gets_one_report_per_tool(tmp_path):
    artifacts = tmp_path / "reports"
    code, output = run_main([
        str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
        "--tools", "shape,wire", "--artifacts-dir", str(artifacts),
        "--format", "json",
    ])
    written = sorted(p.name for p in artifacts.iterdir())
    assert written == ["shape-report.json", "wire-report.json"]
    wire = json.loads((artifacts / "wire-report.json").read_text())
    assert wire["summary"]["exit_code"] == EXIT_FINDINGS


def test_a_crashing_tool_reports_exit_three_without_silencing_others(
        monkeypatch):
    def boom(loaded):
        raise RuntimeError("synthetic lint crash")

    crashing = dataclasses.replace(ANALYZERS[0], model=boom)
    monkeypatch.setattr(check_runner, "ANALYZERS",
                        (crashing, *ANALYZERS[1:]))
    report = run_check([FIXTURES / "wire_fixtures" / "w503_lifecycle"])
    assert report.exit_code == EXIT_CRASH
    assert "synthetic lint crash" in report.crashes["lint"]
    assert "lint" not in report.results
    # The other five analyzers still delivered their results.
    assert sorted(report.results) == ["flow", "perf", "race", "shape",
                                      "wire"]


def test_worst_exit_code_wins_across_tools():
    # The fixture only trips wire; every other analyzer is clean, and
    # the merged exit code is still 1.
    report = run_check([FIXTURES / "wire_fixtures" / "w503_lifecycle"],
                       root=FIXTURES / "wire_fixtures" / "w503_lifecycle")
    assert report.results["wire"].exit_code == EXIT_FINDINGS
    assert report.results["lint"].exit_code in (0, 1)
    assert report.exit_code >= EXIT_FINDINGS


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.check",
         str(FIXTURES / "race_fixtures" / "c201_order"), "--tools", "race"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_FINDINGS
    assert "== repro race ==" in proc.stdout
    assert "C201" in proc.stdout


def test_repro_cli_check_subcommand():
    out = io.StringIO()
    code = repro.cli.main(
        ["check", str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
         "--tools", "wire"], out=out)
    assert code == EXIT_FINDINGS
    assert "== repro wire ==" in out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_show_suppressed_flows_through_to_every_tool(fmt):
    code, output = run_main([
        str(FIXTURES / "flow_fixtures" / "f102_leak"),
        "--show-suppressed", "--format", fmt,
    ])
    assert code == EXIT_FINDINGS
    assert "calibration" in output  # the fixture's justified suppression
    code, hidden = run_main([
        str(FIXTURES / "flow_fixtures" / "f102_leak"), "--format", fmt,
    ])
    assert "calibration" not in hidden


# -- usage errors (exit 2) ------------------------------------------------


def test_unknown_tool_is_a_usage_error(capsys):
    code, _ = run_main([
        str(REPO_SRC / "repro"), "--tools", "lint,quantum",
    ])
    assert code == EXIT_USAGE
    assert "unknown analyzer(s): quantum" in capsys.readouterr().err


def test_nonexistent_path_is_a_usage_error():
    code, _ = run_main(["definitely/not/a/path"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("tool", ["lint", "race", "quantum"])
def test_update_spec_of_an_analyzer_without_a_spec_is_a_usage_error(tool):
    with pytest.raises(SystemExit) as excinfo:
        run_main(["--update-spec", tool])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("selection", [
    pytest.param([], id="whole-suite"),
    pytest.param(["--tools", "lint"], id="no-spec-owner"),
    pytest.param(["--tools", "perf,shape"], id="two-spec-owners"),
])
def test_spec_needs_exactly_one_spec_owning_analyzer(selection, tmp_path,
                                                     capsys):
    code, _ = run_main([str(FIXTURES / "perf_fixtures" / "p305_spec"),
                        "--spec", str(tmp_path / "spec.py"), *selection])
    assert code == EXIT_USAGE
    assert "--spec needs exactly one" in capsys.readouterr().err


def test_spec_goes_to_the_one_selected_spec_owner(tmp_path):
    # lint owns no spec, so perf is the one owner --spec addresses.
    pkg = FIXTURES / "perf_fixtures" / "p305_spec" / "pkg"
    spec = tmp_path / "spec.py"
    code, _ = run_main(["--update-spec", "perf", "--spec", str(spec),
                        str(pkg)])
    assert code == 0
    code, output = run_main([str(pkg), "--tools", "lint,perf", "--spec",
                             str(spec), "--format", "json"])
    report = json.loads(output)
    assert "P305" not in {v["code"] for v in
                          report["tools"]["perf"]["violations"]}


def test_unreadable_profile_is_a_usage_error_for_the_whole_suite(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text("not json", encoding="utf-8")
    code, _ = run_main([str(FIXTURES / "perf_fixtures" / "p301_axis_loop"),
                        "--profile", str(profile)])
    assert code == EXIT_USAGE


# -- specs and the perf hotspots -------------------------------------------


@pytest.mark.parametrize("analyzer", SPEC_OWNERS)
def test_checked_in_spec_is_the_update_spec_fixed_point(analyzer, tmp_path):
    # Rederiving the real tree must reproduce the committed spec byte
    # for byte, so `repro check --update-spec` never churns the diff.
    spec = tmp_path / analyzer.spec.path.name
    code, output = run_main([
        "--update-spec", analyzer.name, "--spec", str(spec),
        str(REPO_SRC / "repro"),
    ])
    assert code == 0
    assert output.startswith("wrote ")
    assert spec.read_bytes() == analyzer.spec.path.read_bytes()


def test_hotspots_close_the_perf_section_of_the_whole_suite():
    fixture = str(FIXTURES / "perf_fixtures" / "p301_axis_loop")
    code, output = run_main([fixture, "--top", "2"])
    assert code == EXIT_FINDINGS
    perf = output.split("== repro perf ==\n")[1].split("== repro shape ==")[0]
    assert "top 2 hotspot(s) of 2 finding(s):" in perf
    assert output.count("hotspot(s)") == 1
    code, as_json = run_main([fixture, "--top", "2", "--format", "json"])
    assert "hotspot" not in as_json  # a text-report section only


# -- messages name the one front end ----------------------------------------

#: The per-analyzer commands that ``repro check`` replaced.
DELETED_COMMANDS = re.compile(
    r"\brepro (?:lint|flow|race|perf|shape|wire)\b"
    r"|\bpython -m repro\.tools\.(?:lint|flow|race|perf|shape|wire)\b"
)


def _strings(path):
    """Every string literal of a Python file (adjacent literals joined)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_no_string_under_tools_names_a_deleted_subcommand():
    tools = REPO_SRC / "repro" / "tools"
    stale = []
    for path in sorted(tools.rglob("*")):
        if path.suffix == ".py":
            strings = _strings(path)
        elif path.suffix == ".json":
            strings = enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
        else:
            continue
        stale += [f"{path.relative_to(tools)}:{line}: {match.group()}"
                  for line, text in strings
                  for match in DELETED_COMMANDS.finditer(text)]
    assert stale == []
