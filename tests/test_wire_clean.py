"""Dogfood gate: the repro source tree must satisfy its own W-rules.

This enforces the wire-contract invariants documented in DESIGN.md
§7.5: derived routes and client expectations matching each other and
the checked-in ``wire_spec.py`` (W501), a complete round-trippable
error taxonomy (W502), no resource acquired without exception-path
protection (W503), nothing JSON-unsafe reaching a protocol encode
site (W504), no indefinitely blocking call reachable from a gateway
handler (W505), and a ``/metrics/summary`` surface matching the spec
(W506).  A failure here means a change moved the HTTP surface, raised
a new unmapped error kind, or leaked a resource without recording or
fixing it — run ``repro check --tools wire`` for the full report;
intentional contract changes are recorded with ``repro check
--update-spec wire``.
"""

from repro.tools.check import get_analyzer


def wire_result(source_tree):
    assert "wire" not in source_tree.report.crashes, \
        source_tree.report.crashes.get("wire")
    return source_tree.report.results["wire"]


def test_source_tree_has_no_unsuppressed_wire_violations(source_tree):
    result = wire_result(source_tree)
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro check found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_wire_suppression_carries_a_reason(source_tree):
    for violation in wire_result(source_tree).suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_the_analyzer_still_sees_the_serving_layer(source_tree):
    # Guard against the gate passing vacuously: the wire model must
    # really derive the gateway's route table, the client's
    # expectations, and the protocol's taxonomy.
    model = get_analyzer("wire").model(source_tree.loaded)

    routes = model.routes()
    assert "GET /health" in routes
    assert "POST /platforms/*/models/*/predict" in routes
    predict = routes["POST /platforms/*/models/*/predict"]
    assert predict["operation"] == "batch_predict"
    assert predict["request"] == ("X",)
    assert predict["response"] == ("predictions",)
    assert set(predict["statuses"]) >= {200, 400, 413}

    entries = model.client_entries()
    assert entries["upload_dataset"]["payload"] == ("X", "name", "y")
    assert entries["get_model"]["path"] == "/platforms/*/models/*"

    # W502 stays quiet because the taxonomy really is complete, not
    # because the analyzer lost sight of the raise sites.
    assert model.taxonomies, "no ERROR_STATUS/KIND_TO_ERROR module found"
    mapped = set(model.taxonomies[0].kind_to_error)
    assert "NotFittedError" in mapped
    assert "ValidationError" in model.raised_kinds
    assert "DeadlineExceededError" in model.constructed_kinds


def test_checked_in_spec_matches_a_fresh_derivation(source_tree):
    from repro.tools.wire.spec import (
        DEFAULT_SPEC_PATH,
        derive_wire_spec,
        load_spec,
    )

    spec = load_spec(DEFAULT_SPEC_PATH)
    assert spec, "wire_spec.py is missing or empty"
    assert len(spec["routes"]) >= 11  # the serving surface, Table-1 style
    assert len(spec["client"]) >= 10
    derived = derive_wire_spec(get_analyzer("wire").model(source_tree.loaded))
    assert derived == spec, (
        "derived wire contract drifted from wire_spec.py; run "
        "`repro check --update-spec wire` to record an intentional change"
    )
