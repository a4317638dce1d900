"""Dogfood gate: the repro source tree must satisfy its own S-rules.

This enforces the array-contract invariants documented in DESIGN.md
§7.4: no provable shape-algebra conflicts (S401), explicit
np.float64/np.intp dtypes on the substrate's hot paths (S402), no
in-place mutation of caller-owned or cache-stored arrays (S403),
contiguous streaming access in the compiled substrate's hot loops
(S404), estimator array contracts matching the checked-in
``array_contracts_spec.py`` (S405), and validated arrays at the public
platform API boundary (S406).  A failure here means a change leaked an
implicit dtype, aliased a shared buffer, or altered an estimator's
array contract without recording it — run ``repro check --tools shape``
for the full report; genuinely safe in-place writes need a ``# repro:
disable=S4xx -- why`` comment stating the ownership argument, and
intentional contract changes are recorded with ``repro check
--update-spec shape``.
"""

from repro.tools.check import get_analyzer


def shape_result(source_tree):
    assert "shape" not in source_tree.report.crashes, \
        source_tree.report.crashes.get("shape")
    return source_tree.report.results["shape"]


def test_source_tree_has_no_unsuppressed_shape_violations(source_tree):
    result = shape_result(source_tree)
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro check found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_shape_suppression_carries_a_reason(source_tree):
    for violation in shape_result(source_tree).suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_the_analyzer_still_sees_the_array_code(source_tree):
    # Guard against the gate passing vacuously: the shape model must
    # carry array facts through the substrate and prove the platform
    # boundary validated.
    model = get_analyzer("shape").model(source_tree.loaded)

    fit = model.functions[("repro.learn.bayes", "GaussianNB.fit")]
    assert fit.param_arrays["X"] == ("samples", "features")
    assert fit.returns_self

    # S406 stays quiet because the boundary really validates, not
    # because the analyzer lost sight of it.
    validated = model.validated_params()
    batch = ("repro.platforms.base", "MLaaSPlatform.batch_predict")
    assert "X" in validated[batch]
    select = ("repro.platforms.autoselect", "AutoClassifierSelector.select")
    assert {"X", "y"} <= validated[select]


def test_checked_in_spec_matches_a_fresh_derivation(source_tree):
    from repro.tools.shape.contracts import derive_contracts, load_spec

    spec = load_spec()
    assert spec, "array_contracts_spec.py is missing or empty"
    assert len(spec) >= 26  # covers the estimator zoo, Table-1 style
    derived = derive_contracts(get_analyzer("shape").model(source_tree.loaded))
    assert derived == spec, (
        "derived array contracts drifted from array_contracts_spec.py; "
        "run `repro check --update-spec shape` to record an intentional "
        "change"
    )
