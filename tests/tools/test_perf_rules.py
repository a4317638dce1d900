"""Per-rule tests for the P-rules, driven by the fixture mini-packages.

Each directory under ``perf_fixtures/`` holds a ``bad.py`` with the
deliberate hot-path hazards one rule must catch and an ``ok.py`` with
the same work vectorized, hoisted, cached, or preallocated that must
stay silent.  ``context_paths=()`` keeps the real tests/benchmarks out
of the fixture analyses; the P305 fixtures keep their spec files one
directory above the analyzed package so the specs are data, not input.
"""

from pathlib import Path

from repro.tools.check import run_analyzer
from repro.tools.perf.rules import (
    AxisLoopRule,
    ComplexitySpecRule,
    HotLoopAllocRule,
    InvariantCallRule,
    QuadraticGrowthRule,
    UncachedRefitRule,
)

FIXTURES = Path(__file__).resolve().parent / "perf_fixtures"


def run_fixture(name, rules, spec_path=None):
    return run_analyzer(
        "perf", [FIXTURES / name], rules=rules,
        root=FIXTURES / name, context_paths=(), spec_path=spec_path,
    )


def findings(result, code, path_suffix=None):
    return [
        v for v in result.unsuppressed
        if v.code == code
        and (path_suffix is None or v.path.endswith(path_suffix))
    ]


# ---------------------------------------------------------------------------
# P301 axis-loop
# ---------------------------------------------------------------------------


def test_p301_flags_feature_range_and_direct_sample_loops():
    result = run_fixture("p301_axis_loop", [AxisLoopRule()])
    bad = findings(result, "P301", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "features axis" in messages  # range(X.shape[1]) loop
    assert "samples axis" in messages  # for row in X append loop
    assert "depth-1" in messages
    assert len(bad) == 2


def test_p301_clean_on_vectorized_and_chunked_forms():
    result = run_fixture("p301_axis_loop", [AxisLoopRule()])
    assert findings(result, "P301", "ok.py") == []


def test_p301_scope_corners():
    """A nested def's assignments feed the enclosing function's array
    facts; lambdas and nested classes change nothing else."""
    result = run_fixture("p301_scopes", [AxisLoopRule()])
    assert [(v.line, v.message.split(" [")[-1])
            for v in findings(result, "P301")] == [
        (17, "outer]"),
        (26, "with_lambda]"),
        (34, "Table.scan]"),
    ]


# ---------------------------------------------------------------------------
# P302 quadratic-growth
# ---------------------------------------------------------------------------


def test_p302_flags_np_append_and_list_self_concat():
    result = run_fixture("p302_growth", [QuadraticGrowthRule()])
    bad = findings(result, "P302", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "np.append" in messages
    assert "acc + [value]" in messages
    assert len(bad) == 2


def test_p302_clean_on_collect_then_concat_and_inplace_add():
    result = run_fixture("p302_growth", [QuadraticGrowthRule()])
    assert findings(result, "P302", "ok.py") == []


# ---------------------------------------------------------------------------
# P303 invariant-call
# ---------------------------------------------------------------------------


def test_p303_flags_invariant_sort_recomputed_per_pass():
    result = run_fixture("p303_invariant", [InvariantCallRule()])
    bad = findings(result, "P303", "bad.py")
    assert len(bad) == 1
    assert "np.sort(temps)" in bad[0].message
    assert "hoist" in bad[0].message


def test_p303_clean_when_hoisted_and_ignores_fresh_rng_draws():
    result = run_fixture("p303_invariant", [InvariantCallRule()])
    assert findings(result, "P303", "ok.py") == []


# ---------------------------------------------------------------------------
# P304 uncached-refit
# ---------------------------------------------------------------------------


def test_p304_flags_clone_fit_loop_on_search_path():
    result = run_fixture("p304_refit", [UncachedRefitRule()])
    bad = findings(result, "P304", "bad.py")
    assert len(bad) == 1
    assert "model = clone(...)" in bad[0].message
    assert "FitCache" in bad[0].message


def test_p304_clean_when_the_fit_goes_through_a_memory_handle():
    result = run_fixture("p304_refit", [UncachedRefitRule()])
    assert findings(result, "P304", "ok.py") == []


# ---------------------------------------------------------------------------
# P305 complexity-spec
# ---------------------------------------------------------------------------


def test_p305_silent_when_spec_matches_derivation():
    result = run_fixture(
        "p305_spec/pkg", [ComplexitySpecRule()],
        spec_path=FIXTURES / "p305_spec" / "spec_match.py",
    )
    assert findings(result, "P305") == []


def test_p305_flags_drifted_and_stale_entries():
    result = run_fixture(
        "p305_spec/pkg", [ComplexitySpecRule()],
        spec_path=FIXTURES / "p305_spec" / "spec_drift.py",
    )
    bad = findings(result, "P305")
    messages = " | ".join(v.message for v in bad)
    assert "disagrees with the spec" in messages  # SlowKNN.fit drifted
    assert "matches no analyzed estimator" in messages  # model.Gone stale
    assert len(bad) == 2
    drifted = [v for v in bad if "disagrees" in v.message]
    assert drifted[0].path.endswith("model.py")
    assert drifted[0].line == 10  # anchored at the class definition


def test_p305_flags_new_estimator_missing_from_real_spec():
    # With the repo's checked-in spec, the fixture estimator is unknown.
    result = run_fixture("p305_spec/pkg", [ComplexitySpecRule()])
    bad = findings(result, "P305")
    assert len(bad) == 1
    assert "model.SlowKNN is not in the complexity spec" in bad[0].message


def test_p305_reports_unreadable_spec_once():
    result = run_fixture(
        "p305_spec/pkg", [ComplexitySpecRule()],
        spec_path=FIXTURES / "p305_spec" / "no_such_spec.py",
    )
    bad = findings(result, "P305")
    assert len(bad) == 1
    assert "missing or unreadable" in bad[0].message


# ---------------------------------------------------------------------------
# P306 hot-loop-alloc
# ---------------------------------------------------------------------------


def test_p306_flags_allocation_in_compiled_module_hot_loop():
    result = run_fixture("p306_alloc", [HotLoopAllocRule()])
    bad = findings(result, "P306", "bad.py")
    assert len(bad) == 1
    assert "np.zeros(4)" in bad[0].message
    assert "preallocate" in bad[0].message


def test_p306_clean_when_buffer_is_preallocated():
    result = run_fixture("p306_alloc", [HotLoopAllocRule()])
    assert findings(result, "P306", "ok.py") == []


def test_p306_ignores_untagged_modules_with_the_same_loop():
    # The identical allocation pattern outside a _COMPILED_SUBSTRATE
    # module is P301/P303 territory, not P306.
    result = run_fixture("p303_invariant", [HotLoopAllocRule()])
    assert findings(result, "P306") == []
