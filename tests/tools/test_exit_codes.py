"""The shared exit-code taxonomy, enforced for every analyzer selection.

``repro check`` — the whole suite or one analyzer through ``--tools`` —
must agree on what its exit code means: 0 clean, 1 findings, 2 usage
error, 3 the analyzer itself crashed.  CI and the pre-commit hook branch
on these, so they are part of the tools' contract, not an
implementation detail.
"""

import io
from pathlib import Path

import pytest

import repro.cli
import repro.tools.check.cli as check_cli
from repro.tools.check import TOOL_NAMES
from repro.tools.exitcodes import (
    EXIT_CLEAN,
    EXIT_CRASH,
    EXIT_FINDINGS,
    EXIT_USAGE,
    run_guarded,
)

FIXTURES = Path(__file__).resolve().parent

#: ``--tools`` arguments, one per analyzer, plus the whole suite.
SELECTIONS = [pytest.param(["--tools", name], id=name) for name in TOOL_NAMES]
ALL_SELECTIONS = SELECTIONS + [pytest.param([], id="check")]

def test_the_taxonomy_constants():
    assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, EXIT_CRASH) == (0, 1, 2, 3)


@pytest.mark.parametrize("selection", ALL_SELECTIONS)
def test_nonexistent_path_is_usage_error_everywhere(selection):
    code = check_cli.main(["definitely/not/a/path", *selection],
                          out=io.StringIO())
    assert code == EXIT_USAGE


@pytest.mark.parametrize("selection", SELECTIONS)
def test_list_rules_is_clean_everywhere(selection):
    out = io.StringIO()
    code = check_cli.main(["--list-rules", *selection], out=out)
    assert code == EXIT_CLEAN
    assert out.getvalue()


@pytest.mark.parametrize("selection", ALL_SELECTIONS)
def test_analyzer_crash_is_exit_3_everywhere(selection, monkeypatch, capsys):
    def boom(args, out=None):
        raise RuntimeError("synthetic analyzer crash")

    monkeypatch.setattr(check_cli, "run_check_command", boom)
    code = check_cli.main(
        [str(FIXTURES / "perf_fixtures" / "p301_axis_loop"), *selection],
        out=io.StringIO())
    assert code == EXIT_CRASH
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "synthetic analyzer crash" in err  # traceback reaches the user


@pytest.mark.parametrize("selection", ALL_SELECTIONS)
def test_repro_cli_propagates_usage_errors(selection):
    code = repro.cli.main(
        ["check", "definitely/not/a/path", *selection], out=io.StringIO())
    assert code == EXIT_USAGE


def findings_exit(fixture, *selection):
    return check_cli.main([str(FIXTURES / fixture), *selection],
                          out=io.StringIO())


def test_findings_exit_one_through_the_perf_cli():
    assert findings_exit("perf_fixtures/p302_growth",
                         "--tools", "perf") == EXIT_FINDINGS


def test_findings_exit_one_through_the_shape_cli():
    assert findings_exit("shape_fixtures/s401_shape",
                         "--tools", "shape") == EXIT_FINDINGS


def test_findings_exit_one_through_the_wire_cli():
    assert findings_exit("wire_fixtures/w503_lifecycle",
                         "--tools", "wire") == EXIT_FINDINGS


def test_findings_exit_one_through_the_check_cli():
    assert findings_exit("wire_fixtures/w503_lifecycle") == EXIT_FINDINGS


def test_run_guarded_reraises_control_flow_exits():
    def bail(args, out=None):
        raise SystemExit(7)

    with pytest.raises(SystemExit):
        run_guarded(bail, None)


# -- the serving subcommands share the same taxonomy ---------------------


def test_loadgen_clean_run_exits_zero(tmp_path):
    report_path = tmp_path / "report.json"
    out = io.StringIO()
    code = repro.cli.main([
        "loadgen", "--loopback", "--platform", "bigml",
        "--clients", "2", "--predicts", "1", "--seed", "3",
        "--samples", "24", "--compare-serial",
        "--output", str(report_path),
    ], out=out)
    assert code == EXIT_CLEAN
    import json

    report = json.loads(report_path.read_text())
    assert report["requests_failed"] == 0
    assert report["serial_equivalent"] is True
    assert report["overall_latency"]["p99"] >= report["overall_latency"]["p50"]


def test_loadgen_usage_errors_exit_two(capsys):
    # argparse rejects a missing target (--url/--loopback) with SystemExit 2.
    with pytest.raises(SystemExit) as excinfo:
        repro.cli.main(["loadgen", "--clients", "2"], out=io.StringIO())
    assert excinfo.value.code == EXIT_USAGE
    # Config validation failures map to the same usage exit code.
    code = repro.cli.main(
        ["loadgen", "--loopback", "--clients", "0"], out=io.StringIO())
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_loadgen_failed_requests_exit_one(capsys):
    # An unreachable server: every request fails, reported as findings.
    code = repro.cli.main([
        "loadgen", "--url", "http://127.0.0.1:9",  # port 9: discard
        "--platform", "bigml", "--clients", "1", "--predicts", "0",
    ], out=io.StringIO())
    assert code == EXIT_FINDINGS
    assert "requests failed" in capsys.readouterr().err


def test_serve_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        repro.cli.main(["serve", "--platform", "quantum"],
                       out=io.StringIO())
    assert excinfo.value.code == EXIT_USAGE
    code = repro.cli.main(["serve", "--max-body-bytes", "0"],
                          out=io.StringIO())
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_serve_request_budget_run_exits_zero():
    import threading

    out = io.StringIO()
    codes = []

    def serve():
        codes.append(repro.cli.main([
            "serve", "--platform", "bigml", "--port", "0",
            "--max-requests", "2",
        ], out=out))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    url = None
    for _ in range(200):
        text = out.getvalue()
        if " at http://" in text:
            url = text.split(" at ")[1].split()[0]
            break
        thread.join(timeout=0.05)
    assert url is not None, f"server never announced itself: {out.getvalue()!r}"

    from repro.serving import HTTPPlatformClient

    client = HTTPPlatformClient(url, "bigml")
    assert client.health()["status"] == "ok"
    assert client.health()["status"] == "ok"
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert codes == [EXIT_CLEAN]
