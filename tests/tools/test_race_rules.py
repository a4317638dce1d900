"""Per-rule tests for the C-rules, driven by the fixture mini-packages.

Each directory under ``race_fixtures/`` holds a ``bad.py`` with the
deliberate hazards one rule must catch and an ``ok.py`` with the same
patterns made safe (locked, atomic, per-task, module-level) that must
stay silent.  ``context_paths=()`` keeps the real tests/benchmarks out
of the fixture analyses.
"""

from pathlib import Path

from repro.tools.check import run_analyzer
from repro.tools.race.rules import (
    BlockingUnderLockRule,
    CheckThenActRule,
    LockOrderRule,
    ProcessCaptureRule,
    SharedRngRule,
    UnguardedSharedWriteRule,
)

FIXTURES = Path(__file__).resolve().parent / "race_fixtures"


def run_fixture(name, rules):
    return run_analyzer(
        "race", [FIXTURES / name], rules=rules,
        root=FIXTURES / name, context_paths=(),
    )


def findings(result, code, path_suffix=None):
    return [
        v for v in result.unsuppressed
        if v.code == code
        and (path_suffix is None or v.path.endswith(path_suffix))
    ]


# ---------------------------------------------------------------------------
# C201 lock-order
# ---------------------------------------------------------------------------


def test_c201_flags_inversion_and_self_deadlock():
    result = run_fixture("c201_order", [LockOrderRule()])
    bad = findings(result, "C201", "bad.py")
    messages = [v.message for v in bad]
    assert any("lock-order inversion" in m for m in messages)
    assert any("self-deadlock" in m for m in messages)
    assert len(bad) == 2


def test_c201_sees_inversion_through_call_boundary():
    result = run_fixture("c201_order", [LockOrderRule()])
    bad = findings(result, "C201", "bad_calls.py")
    assert len(bad) == 1
    assert "lock-order inversion" in bad[0].message
    assert "lock_x" in bad[0].message and "lock_y" in bad[0].message


def test_c201_clean_on_consistent_order_and_rlock():
    result = run_fixture("c201_order", [LockOrderRule()])
    assert findings(result, "C201", "ok.py") == []


# ---------------------------------------------------------------------------
# C202 unguarded-shared-write
# ---------------------------------------------------------------------------


def test_c202_flags_pool_and_closure_workers():
    result = run_fixture("c202_shared_write", [UnguardedSharedWriteRule()])
    bad = findings(result, "C202", "bad.py")
    roots = {v.message for v in bad}
    assert any("counts" in m for m in roots)  # module global via pool.submit
    assert any("results" in m for m in roots)  # closure via Thread(target=...)
    assert len(bad) == 2


def test_c202_clean_when_locked_or_queue():
    result = run_fixture("c202_shared_write", [UnguardedSharedWriteRule()])
    assert findings(result, "C202", "ok.py") == []


# ---------------------------------------------------------------------------
# C203 check-then-act
# ---------------------------------------------------------------------------


def test_c203_flags_both_spellings_in_lock_owning_class():
    result = run_fixture("c203_check_then_act", [CheckThenActRule()])
    bad = findings(result, "C203", "bad.py")
    assert len(bad) == 2
    assert all("self._items" in v.message for v in bad)


def test_c203_clean_under_lock_setdefault_or_unshared_class():
    result = run_fixture("c203_check_then_act", [CheckThenActRule()])
    assert findings(result, "C203", "ok.py") == []


# ---------------------------------------------------------------------------
# C204 process-capture
# ---------------------------------------------------------------------------


def test_c204_flags_lambda_closure_lock_and_bound_method():
    result = run_fixture("c204_process", [ProcessCaptureRule()])
    bad = findings(result, "C204", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "lambda" in messages
    assert "closure 'helper'" in messages
    assert "'lock'" in messages  # unsafe argument
    assert "closure 'setup'" in messages  # initializer
    assert "bound method" in messages
    assert len(bad) == 5


def test_c204_clean_with_module_level_function_and_plain_args():
    result = run_fixture("c204_process", [ProcessCaptureRule()])
    assert findings(result, "C204", "ok.py") == []


# ---------------------------------------------------------------------------
# C205 blocking-under-lock
# ---------------------------------------------------------------------------


def test_c205_flags_direct_and_through_call_blocking():
    result = run_fixture("c205_blocking", [BlockingUnderLockRule()])
    bad = findings(result, "C205", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "time.sleep" in messages
    assert "write_text" in messages
    assert "slow_write" in messages  # via the resolvable callee
    assert "result" in messages
    assert len(bad) == 4


def test_c205_clean_outside_lock_and_for_condition_wait():
    result = run_fixture("c205_blocking", [BlockingUnderLockRule()])
    assert findings(result, "C205", "ok.py") == []


# ---------------------------------------------------------------------------
# C206 shared-rng
# ---------------------------------------------------------------------------


def test_c206_flags_off_lock_class_draw_closure_and_thread_args():
    result = run_fixture("c206_rng", [SharedRngRule()])
    bad = findings(result, "C206", "bad.py")
    messages = " | ".join(v.message for v in bad)
    assert "self._rng" in messages  # off-lock draw in lock-owning class
    assert "closure" in messages  # shared via closure in a worker
    assert "passed to a thread" in messages  # generator in Thread args
    assert len(bad) == 3


def test_c206_clean_for_locked_class_and_per_task_generators():
    result = run_fixture("c206_rng", [SharedRngRule()])
    assert findings(result, "C206", "ok.py") == []
