"""Exit-code contract of the lint analyzer through ``repro check``."""

import io
import json
import textwrap

import pytest

from repro.cli import main as repro_main
from repro.tools.check.cli import main as check_main

_CLEAN = '__all__ = ["CONSTANT"]\n\nCONSTANT = 1\n'

_DIRTY = textwrap.dedent("""
    import numpy as np

    __all__ = ["sample"]


    def sample():
        \"\"\"Draw without a seed (deliberately violates R001).\"\"\"
        return np.random.default_rng()
""")


def _run(main, argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def lint_main(argv, out=None):
    return check_main([*argv, "--tools", "lint"], out=out)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(_CLEAN)
    return path


@pytest.fixture()
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(_DIRTY)
    return path


def test_exit_zero_on_clean_file(clean_file):
    code, output = _run(lint_main, [str(clean_file)])
    assert code == 0
    assert "0 violations" in output


def test_exit_one_on_violation(dirty_file):
    code, output = _run(lint_main, [str(dirty_file)])
    assert code == 1
    assert "R001" in output
    assert "dirty.py" in output


def test_exit_two_on_missing_path(tmp_path):
    code, _ = _run(lint_main, [str(tmp_path / "does_not_exist")])
    assert code == 2


def test_exit_two_on_directory_without_python(tmp_path):
    (tmp_path / "empty").mkdir()
    code, _ = _run(lint_main, [str(tmp_path / "empty")])
    assert code == 2


def test_exit_two_on_bad_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--format", "yaml"])
    assert excinfo.value.code == 2


def test_json_format_is_parseable(dirty_file):
    code, output = _run(lint_main, ["--format", "json", str(dirty_file)])
    assert code == 1
    payload = json.loads(output)["tools"]["lint"]
    assert payload["summary"]["exit_code"] == 1
    assert payload["violations"][0]["code"] == "R001"


def test_list_rules_mentions_every_family():
    code, output = _run(lint_main, ["--list-rules"])
    assert code == 0
    for rule_code in ("R001", "R002", "R003", "R004", "R005"):
        assert rule_code in output


def test_repro_cli_exposes_lint_subcommand(clean_file, dirty_file):
    lint = ["check", "--tools", "lint"]
    assert _run(repro_main, [*lint, str(clean_file)])[0] == 0
    assert _run(repro_main, [*lint, str(dirty_file)])[0] == 1
