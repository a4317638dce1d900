"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


def test_corpus_lists_119_datasets():
    output = run_cli("corpus")
    assert "119 datasets" in output
    assert "synthetic/circle" in output
    assert "life_science" in output


def test_platforms_lists_control_surfaces():
    output = run_cli("platforms")
    assert "microsoft" in output
    assert "(hidden)" in output      # black boxes hide classifiers
    assert "FEAT" in output


def test_baseline_runs_small_study():
    output = run_cli("baseline", "--datasets", "3", "--size-cap", "120")
    assert "Baseline" in output
    for platform in ("google", "abm", "microsoft", "local"):
        assert platform in output


def test_boundary_probe_circle():
    output = run_cli(
        "boundary", "google", "--dataset", "synthetic/circle",
        "--resolution", "40",
    )
    assert "NON-linear" in output
    assert "#" in output


def test_boundary_rejects_high_dimensional_dataset(capsys):
    code = main([
        "boundary", "google", "--dataset", "synthetic/linear_10d",
    ], out=io.StringIO())
    assert code == 2


def test_campaign_runs_and_matches_serial(tmp_path):
    telemetry_path = tmp_path / "telemetry.json"
    output = run_cli(
        "campaign", "--workers", "4", "--datasets", "2", "--size-cap", "100",
        "--compare-serial", "--telemetry-out", str(telemetry_path),
    )
    assert "Campaign" in output
    assert "IDENTICAL" in output
    assert telemetry_path.exists()


@pytest.mark.parametrize("executor", [
    ("--workers", "1"), ("--workers", "4"), ("--processes", "2"),
])
def test_campaign_prints_one_telemetry_line_for_every_executor(executor):
    output = run_cli("campaign", *executor, "--datasets", "2",
                     "--size-cap", "100", "--compare-serial")
    assert "IDENTICAL" in output
    (line,) = [line for line in output.splitlines()
               if line.startswith("telemetry: ")]
    counts = {}
    for part in line[len("telemetry: "):].split(", "):
        value, label = part.split(" ", 1)
        counts[label] = int(value)
    assert list(counts) == ["jobs", "resumed", "failed", "requests",
                            "retries", "shards", "fit cache hits",
                            "fit cache misses"]
    assert counts["jobs"] == 14 and counts["resumed"] == 0
    # A counter an executor does not keep reads 0.
    if executor[0] == "--processes":
        assert counts["shards"] == 2 and counts["requests"] == 0
    else:
        assert counts["shards"] == 0 and counts["requests"] > 0


def test_campaign_checkpoint_resume(tmp_path):
    checkpoint = tmp_path / "campaign.json"
    first = run_cli(
        "campaign", "--workers", "2", "--datasets", "2", "--size-cap", "100",
        "--checkpoint", str(checkpoint),
    )
    assert checkpoint.exists()
    resumed = run_cli(
        "campaign", "--workers", "2", "--datasets", "2", "--size-cap", "100",
        "--checkpoint", str(checkpoint), "--resume", str(checkpoint),
    )
    assert "Campaign" in first and "Campaign" in resumed


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_platform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["boundary", "watson"])


def test_campaign_processes_runs_and_matches_serial(tmp_path):
    telemetry_path = tmp_path / "telemetry.json"
    output = run_cli(
        "campaign", "--processes", "2", "--datasets", "2",
        "--size-cap", "100", "--compare-serial",
        "--telemetry-out", str(telemetry_path),
    )
    assert "processes=2" in output
    assert "IDENTICAL" in output
    assert "shards" in output and "fit cache" in output
    assert telemetry_path.exists()


def test_campaign_processes_checkpoint_resume(tmp_path):
    checkpoint = tmp_path / "campaign.json"
    run_cli(
        "campaign", "--processes", "2", "--datasets", "2",
        "--size-cap", "100", "--checkpoint", str(checkpoint),
    )
    assert checkpoint.exists()
    resumed = run_cli(
        "campaign", "--processes", "2", "--datasets", "2",
        "--size-cap", "100",
        "--checkpoint", str(checkpoint), "--resume", str(checkpoint),
    )
    assert "resumed" in resumed


def test_campaign_rejects_bad_backend_combinations():
    assert main(["campaign", "--processes", "0", "--datasets", "2",
                 "--size-cap", "100"], out=io.StringIO()) == 2
    assert main(["campaign", "--workers", "2", "--processes", "2",
                 "--datasets", "2", "--size-cap", "100"],
                out=io.StringIO()) == 2
