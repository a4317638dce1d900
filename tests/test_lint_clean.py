"""Dogfood gate: the repro source tree must satisfy its own lint rules.

This is the enforcement point for the reproduction invariants documented
in DESIGN.md: determinism (R001), the estimator contract (R002), Table 1
conformance (R003), exception hygiene (R004) and export sync (R005).
A failure here means a change drifted away from the paper's protocol —
run ``repro check --tools lint`` for the full report.
"""


def lint_result(source_tree):
    assert "lint" not in source_tree.report.crashes, \
        source_tree.report.crashes.get("lint")
    return source_tree.report.results["lint"]


def test_source_tree_has_no_unsuppressed_violations(source_tree):
    result = lint_result(source_tree)
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro check found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_suppression_carries_a_reason(source_tree):
    for violation in lint_result(source_tree).suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )
