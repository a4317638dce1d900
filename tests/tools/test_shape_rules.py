"""Per-rule tests for the S-rules, driven by the fixture mini-packages.

Each directory under ``shape_fixtures/`` holds a ``bad.py`` with the
deliberate array-contract hazards one rule must catch and an ``ok.py``
with the same computation done on owned, explicitly-typed, contiguous
arrays that must stay silent.  ``context_paths=()`` keeps the real
tests/benchmarks out of the fixture analyses; the S405 fixtures keep
their spec files one directory above the analyzed package so the specs
are data, not input.  The S402/S406 fixtures nest their files under
``repro/learn`` and ``repro/platforms`` because those rules are scoped
by dotted module prefix.
"""

from pathlib import Path

from repro.tools.check import run_analyzer
from repro.tools.shape.rules import (
    AliasMutationRule,
    BoundaryValidationRule,
    ContractSpecRule,
    DtypeStabilityRule,
    ShapeMismatchRule,
    SubstrateAccessRule,
)

FIXTURES = Path(__file__).resolve().parent / "shape_fixtures"


def run_fixture(name, rules, spec_path=None):
    return run_analyzer(
        "shape", [FIXTURES / name], rules=rules,
        root=FIXTURES / name, context_paths=(), spec_path=spec_path,
    )


def findings(result, code, path_suffix=None):
    return [
        v for v in result.unsuppressed
        if v.code == code
        and (path_suffix is None or v.path.endswith(path_suffix))
    ]


# ---------------------------------------------------------------------------
# S401 shape-mismatch
# ---------------------------------------------------------------------------


def test_s401_flags_uncontractable_dot_and_mixed_stack():
    result = run_fixture("s401_shape", [ShapeMismatchRule()])
    bad = findings(result, "S401", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "'features' x 'samples' do not contract" in messages
    assert "vstack joins incompatible dimensions" in messages
    assert len(bad) == 2


def test_s401_clean_on_contracting_matmul_and_broadcasts():
    result = run_fixture("s401_shape", [ShapeMismatchRule()])
    assert findings(result, "S401", "ok.py") == []


# ---------------------------------------------------------------------------
# S402 dtype-instability
# ---------------------------------------------------------------------------


def test_s402_flags_builtin_dtypes_and_int32_reduction():
    result = run_fixture("s402_dtype", [DtypeStabilityRule()])
    bad = findings(result, "S402", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "builtin dtype `float`" in messages
    assert "builtin dtype `int`" in messages
    assert "int32 array feeds np.cumsum(small)" in messages
    assert len(bad) == 3


def test_s402_clean_when_widths_are_explicit():
    result = run_fixture("s402_dtype", [DtypeStabilityRule()])
    assert findings(result, "S402", "ok.py") == []


def test_s402_builtin_dtype_arms_are_scoped_to_the_learn_substrate():
    # The same astype(float) outside a repro.learn module is style, not
    # a determinism hazard; only the int32-reduce arm is global.
    result = run_fixture("s403_alias", [DtypeStabilityRule()])
    assert findings(result, "S402") == []


# ---------------------------------------------------------------------------
# S403 alias-mutation
# ---------------------------------------------------------------------------


def test_s403_flags_caller_view_and_cache_mutations():
    result = run_fixture("s403_alias", [AliasMutationRule()])
    bad = findings(result, "S403", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "mutates caller-owned array X in place" in messages
    assert "(a view of X)" in messages  # first -= first.mean()
    assert "mutates cache-stored array features" in messages
    assert "y.sort() mutates caller-owned array y" in messages
    assert len(bad) == 4


def test_s403_clean_when_copies_are_taken_first():
    result = run_fixture("s403_alias", [AliasMutationRule()])
    assert findings(result, "S403", "ok.py") == []


# ---------------------------------------------------------------------------
# S404 substrate-access
# ---------------------------------------------------------------------------


def test_s404_flags_invariant_gather_and_strided_column_read():
    result = run_fixture("s404_substrate", [SubstrateAccessRule()])
    bad = findings(result, "S404", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "loop-invariant fancy gather X[rows]" in messages
    assert "strided column read X[:, j]" in messages
    assert len(bad) == 2


def test_s404_clean_on_hoisted_and_loop_varying_access():
    result = run_fixture("s404_substrate", [SubstrateAccessRule()])
    assert findings(result, "S404", "ok.py") == []


def test_s404_ignores_untagged_modules_with_the_same_loops():
    # Identical access patterns outside a _COMPILED_SUBSTRATE module
    # are P301/P303 territory, not S404.
    result = run_fixture("s403_alias", [SubstrateAccessRule()])
    assert findings(result, "S404") == []


# ---------------------------------------------------------------------------
# S405 array-contract-spec
# ---------------------------------------------------------------------------


def test_s405_silent_when_spec_matches_derivation():
    result = run_fixture(
        "s405_contract/pkg", [ContractSpecRule()],
        spec_path=FIXTURES / "s405_contract" / "spec_match.py",
    )
    assert findings(result, "S405") == []


def test_s405_flags_drifted_and_stale_entries():
    result = run_fixture(
        "s405_contract/pkg", [ContractSpecRule()],
        spec_path=FIXTURES / "s405_contract" / "spec_drift.py",
    )
    bad = findings(result, "S405")
    messages = " | ".join(v.message for v in bad)
    assert "disagrees with the spec on predict" in messages  # drifted
    assert "matches no analyzed estimator" in messages  # model.Gone stale
    assert len(bad) == 2
    drifted = [v for v in bad if "disagrees" in v.message]
    assert drifted[0].path.endswith("model.py")
    assert drifted[0].line == 10  # anchored at the class definition


def test_s405_flags_new_estimator_missing_from_real_spec():
    # With the repo's checked-in spec, the fixture estimator is unknown.
    result = run_fixture("s405_contract/pkg", [ContractSpecRule()])
    bad = findings(result, "S405")
    assert len(bad) == 1
    assert "model.TinyCentroid is not in the array-contract spec" \
        in bad[0].message


def test_s405_reports_unreadable_spec_once():
    result = run_fixture(
        "s405_contract/pkg", [ContractSpecRule()],
        spec_path=FIXTURES / "s405_contract" / "no_such_spec.py",
    )
    bad = findings(result, "S405")
    assert len(bad) == 1
    assert "missing or unreadable" in bad[0].message


# ---------------------------------------------------------------------------
# S406 boundary-validation
# ---------------------------------------------------------------------------


def test_s406_flags_public_boundary_method_forwarding_raw_arrays():
    result = run_fixture("s406_boundary", [BoundaryValidationRule()])
    bad = findings(result, "S406", "bad.py")
    assert len(bad) == 1
    assert "array parameter(s) X cross the platform API boundary" \
        in bad[0].message
    assert "[Endpoint.predict_batch]" in bad[0].message


def test_s406_clean_with_direct_and_delegated_validation():
    # Endpoint validates inline; Gateway validates through an
    # in-project helper, exercising the interprocedural fixpoint.
    result = run_fixture("s406_boundary", [BoundaryValidationRule()])
    assert findings(result, "S406", "ok.py") == []


def test_s406_ignores_modules_outside_the_platform_boundary():
    result = run_fixture("s401_shape", [BoundaryValidationRule()])
    assert findings(result, "S406") == []
