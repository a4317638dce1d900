"""The race analyzer — static concurrency & shared-state analysis.

The reproduction is genuinely concurrent: the thread executor of
:func:`~repro.service.campaign.run_campaign` with locks, bounded
queues, and rate limiters, and a ``ProcessPoolExecutor``-backed parallel
``GridSearchCV``.  Both assert a *bit-identical-to-serial* determinism
contract — exactly the guarantee that silently dies the day someone
mutates shared state off-lock or ships one RNG to many workers.  This
package is the third static-analysis pass ("C-rules") that guards that
contract at lint time, before a race shows up as a one-in-a-thousand
nondeterministic campaign result:

* **C201 lock-order** — the lock-acquisition graph built across the call
  graph must be acyclic, and a non-reentrant lock must never be
  re-acquired while held (both are deadlocks waiting for traffic);
* **C202 unguarded-shared-write** — state captured by a thread worker
  (closures, ``self`` attributes) must only be written while a lock is
  held (thread-safe queues are exempt);
* **C203 check-then-act** — ``if k not in d: d[k] = ...`` (and the
  ``.get``/``is None`` spelling) on thread-shared dicts must happen
  under a lock or via an atomic primitive;
* **C204 process-capture** — callables and arguments crossing a
  ``ProcessPoolExecutor`` boundary must not capture locks, RNG
  ``Generator`` objects, open handles, or closures;
* **C205 blocking-under-lock** — no sleeps, joins, ``Future.result``,
  or file I/O while holding a lock (directly or through any resolvable
  callee);
* **C206 shared-rng** — one ``Generator`` object must never be reachable
  from multiple concurrent workers (the determinism-killer; derive
  per-task seeds instead).

Importable API::

    from repro.tools.check import run_analyzer
    result = run_analyzer("race", ["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro check --tools race [PATHS...] [--format text|json]

Suppressions share the lint engine's comment syntax — a justified
suppression states the invariant the analyzer cannot see::

    self._counters[name] = ...  # repro: disable=C203 -- callers hold self._lock

The analysis reuses the lint engine (files parsed once, same reporters
and exit codes) and the flow package's shared symbol/import/call-graph
indexes through the memoized :mod:`repro.tools.indexing` facade, so the
flow and race analyzers in one process index the project once.
"""

from __future__ import annotations

from repro.tools.race.concurrency import ConcurrencyIndex, build_concurrency
from repro.tools.race.rules import default_race_rules

__all__ = [
    "ConcurrencyIndex",
    "build_concurrency",
    "default_race_rules",
]
