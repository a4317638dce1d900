"""Per-family tests for the F-rules, driven by the fixture mini-packages.

Each directory under ``flow_fixtures/`` is a self-contained mini-tree
whose modules are named into the real ``repro.*`` namespaces so the
layering spec applies, with one deliberate violation per rule family.
``context_paths=()`` keeps the real tests/benchmarks/examples out of the
fixture analyses.
"""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.tools.check import run_analyzer
from repro.tools.flow.rules import (
    ApiDriftRule,
    DeadCodeRule,
    LayeringRule,
    LeakageTaintRule,
    SeedFlowRule,
)

FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"
PACKAGE = Path(repro.__file__).resolve().parent


def run_fixture(name, rules, spec_path=None):
    return run_analyzer(
        "flow", [FIXTURES / name], rules=rules,
        root=FIXTURES / name, spec_path=spec_path, context_paths=(),
    )


def codes_and_paths(result):
    return [(v.code, v.path, v.line) for v in result.unsuppressed]


# ---------------------------------------------------------------------------
# F101 layering
# ---------------------------------------------------------------------------


def test_f101_flags_upward_import():
    result = run_fixture("f101_upward", [LayeringRule()])
    findings = [v for v in result.unsuppressed if v.code == "F101"]
    assert len(findings) == 1
    violation = findings[0]
    assert "upward import" in violation.message
    assert "repro.learn.upward" in violation.message
    assert "repro.core" in violation.message
    assert violation.path.endswith("upward.py")


def test_f101_flags_import_time_cycle_but_not_deferred_break():
    result = run_fixture("f101_cycle", [LayeringRule()])
    findings = [v for v in result.unsuppressed if v.code == "F101"]
    assert len(findings) == 1  # alpha<->beta only; gamma/delta is deferred
    message = findings[0].message
    assert "cycle" in message
    assert "repro.core.alpha" in message and "repro.core.beta" in message
    assert "gamma" not in message and "delta" not in message


# ---------------------------------------------------------------------------
# F102 leakage taint
# ---------------------------------------------------------------------------


def test_f102_flags_direct_and_interprocedural_leaks():
    result = run_fixture("f102_leak", [LeakageTaintRule()])
    findings = [v for v in result.unsuppressed if v.code == "F102"]
    lines = {v.line for v in findings if v.path.endswith("leaky.py")}
    # Direct leak: estimator.fit(X_test, y_test) in leaky_evaluate.
    assert 12 in lines
    # Interprocedural: fitting data a helper derived from a test split.
    assert 27 in lines
    # Interprocedural: handing test data to a helper that fits it.
    assert 29 in lines
    # The clean path must stay silent.
    assert not any(v.line <= 8 for v in findings if v.path.endswith("leaky.py"))


def test_f102_suppression_with_reason_is_honored():
    result = run_fixture("f102_leak", [LeakageTaintRule()])
    suppressed = [v for v in result.suppressed
                  if v.path.endswith("suppressed.py")]
    assert len(suppressed) == 1
    assert suppressed[0].code == "F102"
    assert "calibration" in suppressed[0].reason
    assert not any(v.path.endswith("suppressed.py")
                   for v in result.unsuppressed)


def test_f102_follows_a_helper_chain_of_any_depth():
    # h0 -> h1 -> ... -> h24, callers defined first; only h24 fits.
    result = run_fixture("f102_deep_chain", [LeakageTaintRule()])
    assert [(v.line, v.message) for v in result.unsuppressed
            if v.code == "F102"] == [
        (13, "held-out test data reaches training here: value is derived "
             "from a test split and 'repro.learn.chain:h0' fits on its "
             "parameter 'data'; fit only on training folds (paper §3.2 "
             "protocol)"),
    ]


def patched_package(tmp_path, relpath, edits):
    """Copy the real package under ``tmp_path/src`` and apply ``edits``
    (``(old, new)`` pairs, each ``old`` found exactly once) to one module;
    returns the copied module's text."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(PACKAGE, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = root / relpath
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, f"{relpath} no longer holds {old!r}"
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    return text


def f102_in_package(tmp_path):
    result = run_analyzer(
        "flow", [tmp_path / "src" / "repro"], rules=[LeakageTaintRule()],
        root=tmp_path, context_paths=(),
    )
    return [v for v in result.unsuppressed + result.suppressed
            if v.code == "F102"]


#: Leaks seeded into the real measurement code: (module, edits, the text
#: that starts the line F102 must report, how the message says it fits).
F102_MUTANTS = {
    "naive_fits_split_X_test": (
        "analysis/naive.py",
        [("lr.fit(split.X_train, split.y_train)",
          "lr.fit(split.X_test, split.y_train)")],
        "lr.fit(split.X_test", "'.fit()' trains on it",
    ),
    "family_fits_X_test": (
        "analysis/family.py",
        [("model.fit(X_dev, y_dev)", "model.fit(X_test, y_dev)")],
        "model.fit(X_test", "'.fit()' trains on it",
    ),
    "family_fits_dev_stacked_with_test": (
        "analysis/family.py",
        [("model.fit(X_dev, y_dev)",
          "model.fit(np.vstack([X_dev, X_test]), y_dev)")],
        "model.fit(np.vstack", "'.fit()' trains on it",
    ),
    "family_cross_validates_on_test": (
        "analysis/family.py",
        [("model, X_dev, y_dev, cv=n_folds",
          "model, X_test, y_test, cv=n_folds")],
        "cross_val_score(\n",
        "'repro.learn.model_selection:cross_val_score' fits on its parameter",
    ),
    "family_preprocesses_test_with_a_fitting_helper": (
        "analysis/family.py",
        [("from repro.datasets.corpus import Dataset\n",
          "from repro.datasets.corpus import Dataset, preprocess\n"),
         ("model.fit(X_dev, y_dev)", "preprocess(X_test, y_test)")],
        "preprocess(X_test",
        "'repro.datasets.corpus:preprocess' fits on its parameter 'X_raw'",
    ),
}


@pytest.mark.parametrize("name", sorted(F102_MUTANTS))
def test_f102_catches_a_leak_seeded_into_real_code(tmp_path, name):
    relpath, edits, at, how = F102_MUTANTS[name]
    text = patched_package(tmp_path, relpath, edits)
    line = text[:text.index(at)].count("\n") + 1
    findings = f102_in_package(tmp_path)
    assert {(v.path, v.line) for v in findings} == {
        (f"src/repro/{relpath}", line)}
    assert all(how in v.message for v in findings)


def test_f102_misses_test_data_uploaded_to_a_platform(tmp_path):
    # A known gap (ROADMAP, "F102 before the taint fixpoint"): taint is
    # dropped at the platform's dataset store (upload_dataset ->
    # create_model -> fit), so the runner training every measurement on
    # the test split goes unreported.  When the store carries taint, this
    # test should expect F102 at the upload instead.
    patched_package(tmp_path, "core/runner.py", [(
        "split.X_train, split.y_train, name=dataset.name\n"
        "            )\n            try:",
        "split.X_test, split.y_test, name=dataset.name\n"
        "            )\n            try:",
    )])
    assert f102_in_package(tmp_path) == []


# ---------------------------------------------------------------------------
# F103 seed flow
# ---------------------------------------------------------------------------


def test_f103_flags_unthreaded_seed_for_class_and_function_callees():
    result = run_fixture("f103_seed", [SeedFlowRule()])
    findings = [v for v in result.unsuppressed if v.code == "F103"]
    assert {v.line for v in findings} == {15, 16}
    messages = " ".join(v.message for v in findings)
    assert "Shuffler" in messages
    assert "sample_rows" in messages
    # The correctly threaded twin (build_pipeline_correctly) stays silent.
    assert all(v.line < 20 for v in findings)


# ---------------------------------------------------------------------------
# F104 dead code
# ---------------------------------------------------------------------------


def test_f104_flags_orphans_but_not_the_live_chain():
    result = run_fixture("f104_dead", [DeadCodeRule()])
    findings = [v for v in result.unsuppressed if v.code == "F104"]
    named = {v.message.split("'")[1] for v in findings}
    assert named == {"ORPHAN_CONSTANT", "orphan_function", "OrphanClass"}
    # used_entry (__all__), _live_helper and LIVE_CONSTANT (referenced
    # from used_entry) are alive.
    assert "used_entry" not in named
    assert "_live_helper" not in named
    assert "LIVE_CONSTANT" not in named


# ---------------------------------------------------------------------------
# F105 API drift
# ---------------------------------------------------------------------------


def test_f105_flags_signature_and_export_drift():
    spec = FIXTURES / "f105_drift" / "api_spec.json"
    result = run_fixture("f105_drift", [ApiDriftRule(spec_path=spec)])
    findings = [v for v in result.unsuppressed if v.code == "F105"]
    messages = " ".join(v.message for v in findings)
    assert "removed_name" in messages          # export dropped vs. spec
    assert "signature changed" in messages     # default 0.9 -> 0.5
    assert "(X, threshold=0.5)" in messages


def test_f105_reports_a_kind_change_once_and_names_the_command(tmp_path):
    # The spec records predict_scores as a re-export the module did not
    # list in __all__; the tree defines it as a function and exports it.
    spec = tmp_path / "api_spec.json"
    spec.write_text(json.dumps({"version": 1, "modules": {
        "repro.learn.surface": {
            "exports": [],
            "symbols": {"predict_scores": {
                "kind": "reexport", "from": "repro.learn.elsewhere"}},
        },
    }}), encoding="utf-8")
    result = run_fixture("f105_drift", [ApiDriftRule(spec_path=spec)])
    messages = [v.message for v in result.unsuppressed if v.code == "F105"]
    assert len(messages) == 2, messages
    gained, kind = sorted(messages, key=lambda m: "kind" in m)
    assert "gained names ['predict_scores']" in gained
    assert "run 'repro check --update-spec flow'" in gained
    assert "kind changed from 'reexport' to 'function'" in kind


def test_f105_missing_spec_is_reported():
    result = run_fixture(
        "f105_drift",
        [ApiDriftRule(spec_path=FIXTURES / "f105_drift" / "missing.json")],
    )
    findings = [v for v in result.unsuppressed if v.code == "F105"]
    assert len(findings) == 1
    assert "no API spec" in findings[0].message


def test_f105_update_spec_round_trip(tmp_path):
    from repro.tools.flow.apispec import extract_surface, load_spec, write_spec
    from repro.tools.indexing import load_indexed_project

    spec_path = tmp_path / "api_spec.json"
    index = load_indexed_project([FIXTURES / "f105_drift"]).index
    write_spec(extract_surface(index), spec_path)
    # Freshly written spec: drift rule is silent.
    result = run_fixture("f105_drift", [ApiDriftRule(spec_path=spec_path)])
    assert [v for v in result.unsuppressed if v.code == "F105"] == []
    # And the file round-trips through load_spec unchanged.
    assert load_spec(spec_path) == extract_surface(index)


# ---------------------------------------------------------------------------
# Cross-cutting: fixtures stay silent under the *other* rule families
# ---------------------------------------------------------------------------


def test_fixture_violations_do_not_bleed_across_families():
    result = run_fixture("f103_seed", [LayeringRule(), LeakageTaintRule()])
    assert result.unsuppressed == []
