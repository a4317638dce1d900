"""Per-rule tests for the W-rules, driven by the fixture mini-trees.

Each directory under ``wire_fixtures/`` holds the smallest serving
layer that makes one rule fire (a ``bad`` module) next to the same
contract kept honest (an ``ok`` module).  ``context_paths=()`` keeps
the real tests/benchmarks out of the fixture analyses.  The spec rules
(W501/W506) read their ``spec_match.py``/``spec_drift.py`` from one
directory above the analyzed package — the match files are themselves
``--update-spec`` output over the fixture, so the drift tests change
exactly one recorded fact.  The W504 fixture nests its files under
``repro/serving`` because the encode-site scan is scoped to serving
modules by dotted name.
"""

from pathlib import Path

from repro.tools.check import run_analyzer
from repro.tools.wire.rules import (
    BlockingHandlerRule,
    EncodeSafetyRule,
    ErrorTaxonomyRule,
    MetricsSpecRule,
    ResourceLifecycleRule,
    RouteConformanceRule,
)

FIXTURES = Path(__file__).resolve().parent / "wire_fixtures"

#: A spec path that exists nowhere: the spec-diff arms stay out of the
#: way of tests that target the specless checks.
NO_SPEC = FIXTURES / "no_such_spec.py"


def run_fixture(name, rules, spec_path=NO_SPEC):
    return run_analyzer(
        "wire", [FIXTURES / name], rules=rules,
        root=FIXTURES / name, context_paths=(), spec_path=spec_path,
    )


def findings(result, code, path_suffix=None):
    return [
        v for v in result.unsuppressed
        if v.code == code
        and (path_suffix is None or v.path.endswith(path_suffix))
    ]


# ---------------------------------------------------------------------------
# W501 wire-contract
# ---------------------------------------------------------------------------


def test_w501_cross_checks_client_against_derived_routes():
    result = run_fixture(
        "w501_contract/pkg", [RouteConformanceRule()],
        spec_path=FIXTURES / "w501_contract" / "spec_match.py",
    )
    bad = findings(result, "W501", "client_bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "missing() targets `GET /nope`, which matches no route" \
        in messages
    assert "loose_predict() sends payload key(s) debug" in messages
    assert "loose_predict() reads key(s) labels" in messages
    assert len(bad) == 3
    assert findings(result, "W501", "client_ok.py") == []
    assert findings(result, "W501", "server.py") == []


def test_w501_flags_spec_drift_and_stale_entries():
    result = run_fixture(
        "w501_contract/pkg", [RouteConformanceRule()],
        spec_path=FIXTURES / "w501_contract" / "spec_drift.py",
    )
    drift = [v for v in findings(result, "W501")
             if "spec" in v.message]
    messages = " | ".join(v.message for v in drift)
    assert "route `POST /predict` disagrees with the spec on statuses" \
        in messages
    assert "client method predict() is not in the wire spec" in messages
    assert "spec client method predict_all() matches no derived client" \
        in messages
    assert len(drift) == 3
    route_drift = [v for v in drift if "POST /predict" in v.message]
    assert route_drift[0].path.endswith("server.py")  # anchored at the route


def test_w501_reports_a_missing_spec_once():
    result = run_fixture("w501_contract/pkg", [RouteConformanceRule()])
    missing = [v for v in findings(result, "W501")
               if "missing or unreadable" in v.message]
    assert len(missing) == 1
    # The specless client/server cross-checks still ran.
    assert len(findings(result, "W501", "client_bad.py")) == 3


def test_w501_is_silent_without_a_serving_layer():
    # No gateway, no client: even a missing spec is not reported.
    result = run_fixture("w503_lifecycle", [RouteConformanceRule()])
    assert findings(result, "W501") == []


# ---------------------------------------------------------------------------
# W502 error-taxonomy
# ---------------------------------------------------------------------------


def test_w502_flags_every_taxonomy_defect():
    result = run_fixture("w502_taxonomy/bad_pkg", [ErrorTaxonomyRule()])
    bad = findings(result, "W502", "protocol.py")
    messages = " | ".join(v.message for v in bad)
    assert "StatusOnlyError has a status in ERROR_STATUS but no " \
        "KIND_TO_ERROR entry" in messages
    assert "WrongError is in KIND_TO_ERROR but has no ERROR_STATUS" \
        in messages
    assert "KIND_TO_ERROR['WrongError'] maps to ValidationError" in messages
    assert "mapped error kind GhostError is never raised or constructed" \
        in messages
    assert "MissingError is raised here but has no KIND_TO_ERROR mapping" \
        in messages
    assert len(bad) == 5


def test_w502_private_kinds_are_internal_control_flow():
    result = run_fixture("w502_taxonomy/bad_pkg", [ErrorTaxonomyRule()])
    assert not any("_InternalError" in v.message
                   for v in findings(result, "W502"))


def test_w502_clean_on_a_complete_round_trippable_taxonomy():
    result = run_fixture("w502_taxonomy/ok_pkg", [ErrorTaxonomyRule()])
    assert findings(result, "W502") == []


def test_w502_is_silent_without_a_taxonomy():
    result = run_fixture("w501_contract/pkg", [ErrorTaxonomyRule()])
    assert findings(result, "W502") == []


# ---------------------------------------------------------------------------
# W503 resource-lifecycle
# ---------------------------------------------------------------------------


def test_w503_flags_leaky_acquisitions():
    result = run_fixture("w503_lifecycle", [ResourceLifecycleRule()])
    bad = findings(result, "W503", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "socket `sock` is released only on the success path" in messages
    assert "file `handle` is acquired but never released" in messages
    assert "thread `worker` is acquired but never released" in messages
    assert len(bad) == 3


def test_w503_clean_on_protected_or_transferred_resources():
    result = run_fixture("w503_lifecycle", [ResourceLifecycleRule()])
    assert findings(result, "W503", "ok.py") == []


def test_w503_scope_corners():
    """Nested defs, class bodies and lambdas: each is a scope of its own.

    Each scope tracks only its own acquisitions and returns, so the
    nested def's ``handle`` no longer hides the outer leak, and leaks in
    nested defs and class bodies are reported where they are acquired;
    a ``start()`` in a lambda still counts for the enclosing scope.
    """
    never_released = ("is acquired but never released, returned, or "
                      "stored; close it in a finally block or use a "
                      "context manager")
    result = run_fixture("w503_scopes", [ResourceLifecycleRule()])
    assert [(v.line, v.message) for v in findings(result, "W503")] == [
        (13, f"file `handle` {never_released}"),
        (25, f"socket `conn` {never_released}"),
        (33, f"socket `conn` {never_released}"),
        (40, f"thread `worker` {never_released}"),
    ]


# ---------------------------------------------------------------------------
# W504 json-wire-safety
# ---------------------------------------------------------------------------


def test_w504_flags_unencodable_values_at_encode_sites():
    result = run_fixture("w504_encode", [EncodeSafetyRule()])
    bad = findings(result, "W504", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "numpy scalar np.float64(...) reaches json.dumps" in messages
    assert "set literal reaches json.dumps" in messages
    assert "non-finite float float('nan') reaches json.dumps" in messages
    assert "ndarray `rows` reaches json.dumps without encode_array()" \
        in messages
    assert "object-dtype array `cells` reaches json.dumps" in messages
    assert len(bad) == 5


def test_w504_clean_when_values_are_converted_first():
    result = run_fixture("w504_encode", [EncodeSafetyRule()])
    assert findings(result, "W504", "ok.py") == []


# ---------------------------------------------------------------------------
# W505 blocking-handler
# ---------------------------------------------------------------------------


def test_w505_flags_blocking_calls_in_the_handler_closure():
    result = run_fixture("w505_blocking", [BlockingHandlerRule()])
    bad = findings(result, "W505", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "time.sleep() blocks the handler thread" in messages
    assert "`.wait()` with no timeout" in messages
    # The subprocess call lives in a helper the handler resolves into.
    assert "subprocess.check_output() blocks on a child process" in messages
    assert all("[reachable from SleepyGateway]" in v.message for v in bad)
    assert len(bad) == 3


def test_w505_clean_when_every_wait_has_a_timeout():
    result = run_fixture("w505_blocking", [BlockingHandlerRule()])
    assert findings(result, "W505", "ok.py") == []


# ---------------------------------------------------------------------------
# W506 metrics-spec
# ---------------------------------------------------------------------------


def test_w506_silent_when_the_metrics_surface_matches_the_spec():
    result = run_fixture(
        "w506_metrics/pkg", [MetricsSpecRule()],
        spec_path=FIXTURES / "w506_metrics" / "spec_match.py",
    )
    assert findings(result, "W506") == []


def test_w506_flags_a_renamed_operation():
    result = run_fixture(
        "w506_metrics/pkg", [MetricsSpecRule()],
        spec_path=FIXTURES / "w506_metrics" / "spec_drift.py",
    )
    bad = findings(result, "W506", "server.py")
    assert len(bad) == 1
    assert "metrics surface of MetricGateway disagrees with the wire " \
        "spec on operations" in bad[0].message


def test_w506_is_silent_without_a_spec_metrics_section():
    result = run_fixture("w506_metrics/pkg", [MetricsSpecRule()])
    assert findings(result, "W506") == []
