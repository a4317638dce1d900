"""The literal-spec reader behind the perf, shape and wire spec rules.

``complexity_spec.py``, ``array_contracts_spec.py`` and ``wire_spec.py``
load through one reader: whatever makes a spec unusable is reported by
the owning rule as "missing or unreadable" on line 1 of the spec, never
raised out of the analyzer.
"""

from pathlib import Path

import pytest

from repro.tools.check import run_check

TOOLS = Path(__file__).resolve().parent

#: analyzer -> (spec literal name, fixture tree, the rule reporting it)
SPECS = {
    "perf": ("COMPLEXITY", TOOLS / "perf_fixtures" / "p305_spec", "P305"),
    "shape": ("ARRAY_CONTRACTS", TOOLS / "shape_fixtures" / "s405_contract",
              "S405"),
    "wire": ("WIRE_SPEC", TOOLS / "wire_fixtures" / "w501_contract", "W501"),
}

#: Spec file text (``None``: no file) for each way a spec is unusable.
UNUSABLE = {
    "missing file": None,
    "syntax error": "{name} = {{\n",
    "non-literal value": "{name} = dict(a=1)\n",
    "non-dict value": "{name} = [1, 2]\n",
    "name absent": "OTHER = {{}}\n",
    "unhashable key": "{name} = {{[1]: 2}}\n",
}


def _check(tool, spec):
    tree = SPECS[tool][1]
    report = run_check([tree], root=tree, context_paths=(), tools=[tool],
                       spec_path=spec)
    assert not report.crashes, report.crashes
    return [v for v in report.results[tool].violations
            if v.code == SPECS[tool][2] and "missing or unreadable" in v.message]


@pytest.mark.parametrize("case", sorted(UNUSABLE))
@pytest.mark.parametrize("tool", sorted(SPECS))
def test_an_unusable_spec_is_reported_on_its_first_line(tmp_path, tool, case):
    spec = tmp_path / "spec.py"
    if UNUSABLE[case] is not None:
        spec.write_text(UNUSABLE[case].format(name=SPECS[tool][0]),
                        encoding="utf-8")
    assert [(v.path, v.line) for v in _check(tool, spec)] == [(str(spec), 1)]


@pytest.mark.parametrize("tool", sorted(SPECS))
def test_a_multi_target_assignment_is_read(tmp_path, tool):
    # ``A = B = {...}`` binds the spec name like a plain assignment.
    spec = tmp_path / "spec.py"
    spec.write_text(f"{SPECS[tool][0]} = ALIAS = {{}}\n", encoding="utf-8")
    assert _check(tool, spec) == []
