"""The C-rules: concurrency hazards over the shared concurrency model.

Each rule queries the :class:`~repro.tools.race.concurrency.ConcurrencyIndex`
built once per run and injected by the runner (mirroring how the F-rules
receive the flow index).  All six are project rules — their findings come
from the model, not from re-walking individual files — but every
violation is anchored to the file and line of the offending construct,
so the shared suppression machinery applies unchanged.
"""

from __future__ import annotations

from typing import Iterable

from repro.tools.lint.engine import FunctionRule, Project, Violation
from repro.tools.race.concurrency import ConcurrencyIndex

__all__ = [
    "BlockingUnderLockRule",
    "CheckThenActRule",
    "LockOrderRule",
    "ProcessCaptureRule",
    "RaceRule",
    "SharedRngRule",
    "UnguardedSharedWriteRule",
    "default_race_rules",
]


class RaceRule(FunctionRule):
    """Base class for C-rules; the runner injects the concurrency index."""

    def __init__(self, con: ConcurrencyIndex | None = None):
        self.con = con


def _held_names(held) -> str:
    return ", ".join(str(lock) for lock in held)


class LockOrderRule(RaceRule):
    """C201: the lock-acquisition order must be globally consistent."""

    code = "C201"
    name = "lock-order"
    description = (
        "Lock-acquisition graph across the call graph must be acyclic, "
        "and non-reentrant locks must never be re-acquired while held."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report re-acquisitions and cross-path lock-order cycles."""
        con = self.con
        acquires = con.transitive_acquires()
        edges: dict = {}  # (outer LockId, inner LockId) -> (facts, line, col)

        for facts in con.facts.values():
            for acq in facts.acquisitions:
                if acq.lock in acq.held and not con.reentrant(acq.lock):
                    yield self._violation(
                        facts, acq.lineno, acq.col,
                        f"non-reentrant lock {acq.lock} re-acquired while "
                        "already held (self-deadlock)",
                    )
                for outer in acq.held:
                    if outer != acq.lock:
                        edges.setdefault((outer, acq.lock),
                                         (facts, acq.lineno, acq.col))
            for call in facts.locked_calls:
                if not call.held or call.target is None:
                    continue
                for inner in acquires.get(call.target, ()):
                    for outer in call.held:
                        if outer == inner:
                            if not con.reentrant(inner):
                                yield self._violation(
                                    facts, call.lineno, call.col,
                                    f"call to {call.repr}() may re-acquire "
                                    f"non-reentrant lock {inner} already "
                                    "held here (self-deadlock)",
                                )
                        else:
                            edges.setdefault((outer, inner),
                                             (facts, call.lineno, call.col))

        adjacency: dict = {}
        for outer, inner in edges:
            adjacency.setdefault(outer, set()).add(inner)
            adjacency.setdefault(inner, set())
        for component in _cycles(adjacency):
            anchor = min(
                (edges[pair] for pair in edges
                 if pair[0] in component and pair[1] in component),
                key=lambda entry: (entry[0].relpath, entry[1]),
            )
            facts, line, col = anchor
            ordering = " -> ".join(sorted(str(lock) for lock in component))
            yield self._violation(
                facts, line, col,
                f"lock-order inversion: {ordering} are acquired in "
                "conflicting orders on different code paths (deadlock "
                "when the paths interleave)",
            )


def _cycles(adjacency: dict) -> list:
    """Strongly connected components with >1 node (Tarjan, iterative)."""
    index_counter = [0]
    stack: list = []
    lowlink: dict = {}
    number: dict = {}
    on_stack: set = set()
    components: list = []

    def visit(root):
        work = [(root, iter(sorted(adjacency[root], key=str)))]
        number[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in number:
                    number[child] = lowlink[child] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, iter(sorted(adjacency[child], key=str))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], number[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == number[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(component)

    for node in sorted(adjacency, key=str):
        if node not in number:
            visit(node)
    return components


class UnguardedSharedWriteRule(RaceRule):
    """C202: worker threads must hold a lock when writing shared state."""

    code = "C202"
    name = "unguarded-shared-write"
    description = (
        "State reachable from a thread worker (closures, self attributes, "
        "module globals) must only be written while holding a lock."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report off-lock writes to shared state in thread workers."""
        for facts in self.con.facts.values():
            if not self.con.is_thread_target(facts):
                continue
            if facts.qualname.endswith("__init__"):
                continue  # construction happens-before any thread start
            for mutation in facts.mutations:
                if mutation.held:
                    continue
                yield self._violation(
                    facts, mutation.lineno, mutation.col,
                    f"thread worker writes shared state {mutation.root!r} "
                    "without holding a lock",
                )


class CheckThenActRule(RaceRule):
    """C203: membership checks and stores on shared dicts must be atomic."""

    code = "C203"
    name = "check-then-act"
    description = (
        "'if key not in d: d[key] = ...' (or the .get()/is-None spelling) "
        "on a thread-shared mapping is not atomic; guard it with the "
        "owning lock or use dict.setdefault()."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report non-atomic check-then-act on thread-shared mappings."""
        con = self.con
        for facts in con.facts.values():
            shared_class = (
                facts.class_name is not None
                and (facts.module_name, facts.class_name)
                in con.lock_owner_classes
            )
            for cta in facts.check_then_acts:
                if cta.held:
                    continue
                if cta.via_self:
                    if not shared_class:
                        continue
                elif not con.is_thread_target(facts):
                    continue
                yield self._violation(
                    facts, cta.lineno, cta.col,
                    f"non-atomic check-then-act on shared mapping "
                    f"{cta.root!r}: another thread can interleave between "
                    "the check and the store; hold the owning lock or use "
                    "setdefault()",
                )


class ProcessCaptureRule(RaceRule):
    """C204: nothing thread-local may cross a process-pool boundary."""

    code = "C204"
    name = "process-capture"
    description = (
        "Callables and arguments shipped to a ProcessPoolExecutor must be "
        "picklable module-level functions; locks, RNG Generators, open "
        "handles, queues, and closures cannot cross the fork/spawn "
        "boundary."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report unpicklable captures crossing process-pool boundaries."""
        for facts in self.con.facts.values():
            for sub in facts.submissions:
                if sub.boundary != "process":
                    continue
                if sub.func_form in ("lambda", "closure"):
                    yield self._violation(
                        facts, sub.lineno, sub.col,
                        f"{sub.func_form} {sub.func_repr!r} submitted to a "
                        "process pool cannot be pickled; use a module-level "
                        "function",
                    )
                elif sub.func_form == "bound-method" and (
                        facts.module_name, facts.class_name or "",
                ) in self.con.lock_owner_classes:
                    yield self._violation(
                        facts, sub.lineno, sub.col,
                        f"bound method {sub.func_repr!r} submitted to a "
                        "process pool pickles its instance, which owns a "
                        "lock; use a module-level function",
                    )
                for repr_, kind in sub.unsafe_args:
                    yield self._violation(
                        facts, sub.lineno, sub.col,
                        f"argument {repr_!r} of kind {kind!r} cannot "
                        "safely cross the process boundary (unpicklable "
                        "or process-local state)",
                    )


class BlockingUnderLockRule(RaceRule):
    """C205: no blocking operations while holding a lock."""

    code = "C205"
    name = "blocking-under-lock"
    description = (
        "Sleeps, joins, Future.result, queue and file I/O while holding a "
        "lock serialize every other thread on that lock (directly or "
        "through any resolvable callee)."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report operations that may block while a lock is held."""
        con = self.con
        blocks = con.blocking_summary()
        for facts in con.facts.values():
            for op in facts.blocking_ops:
                if op.held:
                    yield self._violation(
                        facts, op.lineno, op.col,
                        f"blocking {op.what} while holding "
                        f"{_held_names(op.held)}",
                    )
            for call in facts.locked_calls:
                if (call.held and call.target is not None
                        and blocks.get(call.target, False)):
                    target_name = f"{call.target[0]}:{call.target[1]}"
                    yield self._violation(
                        facts, call.lineno, call.col,
                        f"call to {target_name} may block (sleep/join/IO "
                        f"in its body or callees) while holding "
                        f"{_held_names(call.held)}",
                    )


class SharedRngRule(RaceRule):
    """C206: one RNG object must not be reachable from concurrent workers."""

    code = "C206"
    name = "shared-rng"
    description = (
        "A single random Generator drawn from by multiple concurrent "
        "workers destroys bit-reproducibility (and, unlocked, its state "
        "updates race); derive per-task seeds instead."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report RNG objects reachable from multiple concurrent workers."""
        con = self.con
        for facts in con.facts.values():
            is_target = con.is_thread_target(facts)
            shared_class = (
                facts.class_name is not None
                and (facts.module_name, facts.class_name)
                in con.lock_owner_classes
            )
            for use in facts.rng_uses:
                if is_target:
                    # Even lock-guarded draws interleave in scheduling
                    # order inside a worker: the stream is nondeterministic.
                    yield self._violation(
                        facts, use.lineno, use.col,
                        f"thread worker draws from shared generator "
                        f"{use.root!r} ({use.shared_via}); the draw order "
                        "depends on thread scheduling — derive a per-task "
                        "seed instead",
                    )
                elif shared_class and not use.held:
                    yield self._violation(
                        facts, use.lineno, use.col,
                        f"draw from {use.root!r} outside the owning lock "
                        "in a lock-owning (thread-shared) class: "
                        "concurrent draws corrupt generator state",
                    )
            for sub in facts.submissions:
                if sub.boundary != "thread":
                    continue
                for repr_, kind in sub.unsafe_args:
                    if kind == "rng":
                        yield self._violation(
                            facts, sub.lineno, sub.col,
                            f"generator {repr_!r} passed to a thread "
                            "worker is shared across workers; pass a seed "
                            "and construct the generator inside the worker",
                        )


def default_race_rules(con: ConcurrencyIndex | None = None) -> list:
    """Every C-rule, optionally bound to a concurrency index."""
    return [
        LockOrderRule(con),
        UnguardedSharedWriteRule(con),
        CheckThenActRule(con),
        ProcessCaptureRule(con),
        BlockingUnderLockRule(con),
        SharedRngRule(con),
    ]
