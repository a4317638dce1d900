"""Cross-tool suppression round-trip: one comment syntax, six analyzers.

The six analyzers share the ``# repro: disable=CODE -- reason`` syntax
in one source tree, so each must treat the other analyzers' codes as
*known* (no R000 unknown-code finding) while still reporting a genuinely
unknown code.  The known codes are the registry's rule codes.
"""

from repro.tools.check import ANALYZERS, TOOL_NAMES, known_codes, run_analyzer
from repro.tools.lint import lint_source


def write_tree(tmp_path, body):
    (tmp_path / "mod.py").write_text(body, encoding="utf-8")
    return tmp_path


def r000_messages(result):
    return [v.message for v in result.unsuppressed if v.code == "R000"]


def accepts_every_other_code(tmp_path, name):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = run_analyzer(name, [tree], root=tree, context_paths=())
    assert r000_messages(result) == []


SOURCE_WITH_COMPANION_SUPPRESSIONS = '''\
"""Module carrying suppressions owned by all six analyzers."""

__all__ = ["work"]


def work(items):
    total = 0  # repro: disable=R001 -- lint-owned code, documented
    for item in items:  # repro: disable=F104 -- flow-owned code, documented
        total += item  # repro: disable=C202 -- race-owned code, documented
    # repro: disable=P301 -- perf-owned code, documented
    # repro: disable=S403 -- shape-owned code, documented
    # repro: disable=W503 -- wire-owned code, documented
    return total
'''


def test_lint_accepts_flow_race_perf_and_shape_codes(tmp_path):
    accepts_every_other_code(tmp_path, "lint")


def test_flow_accepts_lint_race_perf_and_shape_codes(tmp_path):
    accepts_every_other_code(tmp_path, "flow")


def test_race_accepts_lint_flow_perf_and_shape_codes(tmp_path):
    accepts_every_other_code(tmp_path, "race")


def test_perf_accepts_lint_flow_race_and_shape_codes(tmp_path):
    accepts_every_other_code(tmp_path, "perf")


def test_shape_accepts_lint_flow_race_and_perf_codes(tmp_path):
    accepts_every_other_code(tmp_path, "shape")


def test_wire_accepts_the_other_five_tools_codes(tmp_path):
    accepts_every_other_code(tmp_path, "wire")


def test_all_six_tools_reject_a_truly_unknown_code(tmp_path):
    tree = write_tree(tmp_path, (
        '"""Module with a bogus suppression code."""\n\n'
        '__all__ = []\n\n'
        'VALUE = 1  # repro: disable=Z999 -- no tool owns this code\n'
    ))
    for name in TOOL_NAMES:
        result = run_analyzer(name, [tree], root=tree, context_paths=())
        messages = r000_messages(result)
        assert any("Z999" in message for message in messages), name


def test_every_rule_code_of_the_registry_is_known():
    codes = {rule.code for analyzer in ANALYZERS
             for rule in analyzer.rules(None, None)}
    assert len(codes) == 34
    assert known_codes() == codes | {"R000"}


def test_lint_source_shares_the_registry_vocabulary():
    result = lint_source(SOURCE_WITH_COMPANION_SUPPRESSIONS, "mod.py")
    assert r000_messages(result) == []
    result = lint_source("VALUE = 1  # repro: disable=Z999 -- nobody\n",
                         "mod.py")
    assert any("Z999" in message for message in r000_messages(result))
