"""Engine mechanics: suppressions, R000 diagnostics, result shaping."""

import ast
import textwrap
import tokenize
from pathlib import Path

from repro.tools.lint import ENGINE_CODE, LintResult, Violation, lint_source
from repro.tools.lint.engine import load_module, parse_suppressions
from repro.tools.lint.rules import DeterminismRule


def _lint(source):
    return lint_source(textwrap.dedent(source), rules=[DeterminismRule()])


def test_parse_suppressions_same_line():
    [sup] = parse_suppressions(
        "x = risky()  # repro: disable=R001 -- documented opt-in\n"
    )
    assert sup.codes == ("R001",)
    assert sup.reason == "documented opt-in"
    assert not sup.standalone
    assert sup.applies_to_line == 1


def test_parse_suppressions_standalone_covers_next_line():
    source = "# repro: disable=R001,R004 -- spans two rules\nx = 1\n"
    [sup] = parse_suppressions(source)
    assert sup.standalone
    assert sup.codes == ("R001", "R004")
    assert sup.applies_to_line == 2


def test_suppression_text_inside_string_literal_is_ignored():
    source = 'msg = "# repro: disable=R001 -- not a comment"\n'
    assert parse_suppressions(source) == []


def test_source_without_marker_is_not_tokenized(monkeypatch):
    def refuse(readline):
        raise AssertionError("tokenized a source with no suppression")

    monkeypatch.setattr(tokenize, "generate_tokens", refuse)
    assert parse_suppressions("x = risky()  # repro: R001 -- no marker\n") == []
    assert parse_suppressions("") == []


def test_justified_suppression_silences_violation():
    result = _lint("""
        import numpy as np
        rng = np.random.default_rng()  # repro: disable=R001 -- fixture
    """)
    assert result.unsuppressed == []
    assert len(result.suppressed) == 1
    assert result.exit_code == 0


def test_suppression_without_reason_is_rejected():
    result = _lint("""
        import numpy as np
        rng = np.random.default_rng()  # repro: disable=R001
    """)
    codes = {v.code for v in result.unsuppressed}
    # The original finding survives AND the reasonless comment is flagged.
    assert codes == {"R001", ENGINE_CODE}


def test_unknown_code_in_suppression_is_flagged():
    result = _lint("x = 1  # repro: disable=R999 -- no such rule\n")
    [violation] = result.unsuppressed
    assert violation.code == ENGINE_CODE
    assert "R999" in violation.message


def test_engine_code_cannot_be_suppressed():
    result = _lint(f"x = 1  # repro: disable={ENGINE_CODE} -- nice try\n")
    assert any(v.code == ENGINE_CODE for v in result.unsuppressed)


def test_syntax_error_becomes_engine_violation():
    result = lint_source("def broken(:\n", rules=[DeterminismRule()])
    [violation] = result.unsuppressed
    assert violation.code == ENGINE_CODE
    assert result.exit_code == 1


def test_violations_sorted_by_location():
    result = _lint("""
        import numpy as np
        b = np.random.normal()
        a = np.random.rand()
    """)
    lines = [v.line for v in result.unsuppressed]
    assert lines == sorted(lines)


def test_exit_code_reflects_unsuppressed_only():
    clean = LintResult(violations=[], n_files=1)
    assert clean.exit_code == 0
    suppressed_only = LintResult(
        violations=[Violation(code="R001", message="m", path="p", line=1,
                              suppressed=True, reason="why")],
        n_files=1,
    )
    assert suppressed_only.exit_code == 0
    dirty = LintResult(
        violations=[Violation(code="R001", message="m", path="p", line=1)],
        n_files=1,
    )
    assert dirty.exit_code == 1


SCOPES_FIXTURE = (Path(__file__).resolve().parent / "wire_fixtures"
                  / "w503_scopes" / "scopes.py")


def _shape(nodes):
    return [(type(node).__name__, getattr(node, "lineno", None),
             getattr(node, "col_offset", None)) for node in nodes]


def test_own_nodes_partition_the_module_and_match_a_fresh_walk():
    module, _ = load_module(SCOPES_FIXTURE)
    scopes = module.scopes_in(module.tree)
    assert len(scopes) == 1 + sum(
        isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda))
        for node in ast.walk(module.tree))
    owned = [id(node) for scope in scopes for node in module.own_nodes(scope)]
    assert sorted(owned) == sorted(map(id, module.nodes))  # each in one list
    # A scope node of another tree (two files sharing a dotted name) is
    # walked afresh, to the same nodes in the same order.
    fresh = ast.parse(module.source)
    fresh_scopes = module.scopes_in(fresh)
    assert sorted(_shape(fresh_scopes)) == sorted(_shape(scopes))
    by_place = {_shape([scope])[0]: scope for scope in fresh_scopes}
    for scope in scopes:
        assert _shape(module.own_nodes(by_place[_shape([scope])[0]])) \
            == _shape(module.own_nodes(scope))
