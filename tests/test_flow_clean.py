"""Dogfood gate: the repro source tree must satisfy its own flow rules.

This enforces the cross-module invariants documented in DESIGN.md §7.1:
the layering DAG (F101), absence of test-data leakage into training
(F102), seed threading across call boundaries (F103), liveness of every
public symbol (F104), and API-surface stability against the checked-in
``api_spec.json`` (F105).  A failure here means a change inverted the
architecture, leaked held-out data, dropped a seed, stranded dead code,
or silently changed the public API — run ``repro check --tools flow``
for the full report, and ``repro check --update-spec flow`` for
intentional API changes.
"""


def flow_result(source_tree):
    assert "flow" not in source_tree.report.crashes, \
        source_tree.report.crashes.get("flow")
    return source_tree.report.results["flow"]


def test_source_tree_has_no_unsuppressed_flow_violations(source_tree):
    result = flow_result(source_tree)
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro check found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_flow_suppression_carries_a_reason(source_tree):
    for violation in flow_result(source_tree).suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_api_spec_is_in_sync_with_the_tree(source_tree):
    # --update-spec must be a no-op on a clean tree: extracting the
    # surface again yields byte-identical JSON (so CI diffs stay quiet).
    import json

    from repro.tools.flow.apispec import DEFAULT_SPEC_PATH, extract_surface

    surface = extract_surface(source_tree.loaded.index)
    current = json.dumps(surface, indent=2, sort_keys=True) + "\n"
    assert DEFAULT_SPEC_PATH.read_text(encoding="utf-8") == current
