"""Dogfood gate: the repro source tree must satisfy its own P-rules.

This enforces the performance invariants documented in DESIGN.md §7.3:
no un-vectorized Python loops over ndarray axes (P301), no quadratic
array growth (P302), no loop-invariant recomputation (P303), no
cache-bypassing repeated pure fits on search paths (P304), estimator
complexities matching the checked-in ``complexity_spec.py`` (P305), and
allocation-free hot loops in the compiled substrate (P306).  A failure
here means a change regressed a hot path or altered an estimator's cost
class without recording it — run ``repro check --tools perf`` for the
full report; genuinely loop-shaped code needs a ``# repro: disable=P3xx
-- why`` comment stating the performance argument, and intentional
complexity changes are recorded with ``repro check --update-spec perf``.
"""

from repro.tools.check import get_analyzer


def perf_result(source_tree):
    assert "perf" not in source_tree.report.crashes, \
        source_tree.report.crashes.get("perf")
    return source_tree.report.results["perf"]


def test_source_tree_has_no_unsuppressed_perf_violations(source_tree):
    result = perf_result(source_tree)
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro check found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_perf_suppression_carries_a_reason(source_tree):
    for violation in perf_result(source_tree).suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_the_analyzer_still_sees_the_hot_code(source_tree):
    # Guard against the gate passing vacuously: the loop model must
    # cover the substrate's known loops and the documented suppressions
    # must be the ones negotiated with the analyzer.
    model = get_analyzer("perf").model(source_tree.loaded)

    kendall = model.functions[
        ("repro.learn.feature_selection.filters", "kendall_score")
    ]
    assert any(loop.dim == "features" for loop in kendall.loops)

    cross_val = model.functions[
        ("repro.learn.model_selection", "cross_val_score")
    ]
    assert any(loop.fit_calls for loop in cross_val.loops)

    depths = model.depth_summary()
    forest_fit = depths[
        ("repro.learn.ensemble.forest", "RandomForestClassifier.fit")
    ]
    assert forest_fit.get("estimators", 0) >= 1

    suppressed_codes = {v.code for v in perf_result(source_tree).suppressed}
    assert "P301" in suppressed_codes  # kendall/mutual-info column loops
    assert "P304" in suppressed_codes  # per-fold fits on distinct rows


def test_checked_in_spec_matches_a_fresh_derivation(source_tree):
    from repro.tools.perf.complexity import (
        DEFAULT_SPEC_PATH,
        derive_complexity,
    )
    from repro.tools.specs import load_literal_spec

    spec = load_literal_spec(DEFAULT_SPEC_PATH, "COMPLEXITY")
    assert spec, "complexity_spec.py is missing or empty"
    derived = derive_complexity(get_analyzer("perf").model(source_tree.loaded))
    assert derived == spec, (
        "derived complexity drifted from complexity_spec.py; "
        "run `repro check --update-spec perf` to record an intentional change"
    )
