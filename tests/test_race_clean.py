"""Dogfood gate: the repro source tree must satisfy its own C-rules.

This enforces the concurrency invariants documented in DESIGN.md §7.2:
a consistent lock order (C201), no off-lock writes from worker threads
(C202), atomic check-then-act on shared mappings (C203), picklable
process-pool boundaries (C204), no blocking while holding a lock
(C205), and no RNG object shared between concurrent workers (C206).
A failure here means a change put the campaign scheduler's or parallel
grid search's bit-identical-to-serial determinism contract at risk —
run ``repro check --tools race`` for the full report; genuinely safe
sites need a ``# repro: disable=C2xx -- invariant`` comment stating why.
"""

from repro.tools.check import get_analyzer


def race_result(source_tree):
    assert "race" not in source_tree.report.crashes, \
        source_tree.report.crashes.get("race")
    return source_tree.report.results["race"]


def test_source_tree_has_no_unsuppressed_race_violations(source_tree):
    result = race_result(source_tree)
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro check found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_race_suppression_carries_a_reason(source_tree):
    for violation in race_result(source_tree).suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_the_analyzer_still_sees_the_concurrent_code(source_tree):
    # Guard against the gate passing vacuously: the model must contain
    # the scheduler's worker closure, its locks, and the known (documented)
    # suppressions in the service layer.
    con = get_analyzer("race").model(source_tree.loaded)
    worker = con.facts[
        ("repro.service.scheduler", "CampaignScheduler._execute.<locals>.worker")
    ]
    assert worker.is_thread_target
    assert any(str(lock).endswith("Telemetry._lock")
               for lock in con.lock_kinds)

    suppressed_codes = {v.code for v in race_result(source_tree).suppressed}
    assert "C203" in suppressed_codes  # telemetry private helpers
    assert "C205" in suppressed_codes  # checkpoint write lock
