"""Concurrency model extraction for the C-rules.

This module turns the flow package's shared indexes into the structures
the race rules query: which values are locks, queues, executors, RNGs,
or open handles; which functions run on worker threads; what every
function acquires, writes, and calls *while holding which locks*.

The model is built per function scope (including nested ``def``\\ s — the
closure-worker pattern ``threading.Thread(target=worker)`` is the
service layer's bread and butter) by a single AST walk that tracks the
lexical stack of held locks through ``with`` statements.  Identity is
static: ``self._lock`` of a class is one :class:`LockId` regardless of
how many instances exist at runtime, which is the standard
approximation for lock-order analysis (two instances' locks can still
deadlock if two code paths order them differently).

Like the flow indexes, the model is deliberately *approximate* and errs
toward silence: a value whose kind cannot be traced to a known
constructor (``threading.Lock``, ``queue.Queue``,
``ProcessPoolExecutor``, ``np.random.default_rng``, ``open``, ...)
has no kind and triggers no rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.tools.flow.graph import FlowIndex, dotted_path
from repro.tools.lint.engine import safe_unparse

__all__ = [
    "Acquisition",
    "BlockingOp",
    "CheckThenAct",
    "ConcurrencyIndex",
    "FunctionFacts",
    "LockId",
    "LockedCall",
    "Mutation",
    "PoolSubmission",
    "RngUse",
    "build_concurrency",
]

#: Constructor final-name -> value kind.  Final-name matching is the
#: same approximation the lint rules use for base classes: distinctive
#: names resolve regardless of import alias, anything ambiguous stays
#: unclassified.
_CTOR_KINDS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Semaphore": "rlock",          # counting: re-acquire may legally succeed
    "BoundedSemaphore": "rlock",
    "Condition": "condition",
    "Queue": "queue",
    "LifoQueue": "queue",
    "PriorityQueue": "queue",
    "SimpleQueue": "queue",
    "deque": "queue",              # appends/pops are documented thread-safe
    "ThreadPoolExecutor": "thread_pool",
    "ProcessPoolExecutor": "process_pool",
    "default_rng": "rng",
    "RandomState": "rng",
}

#: Kinds that behave as locks in ``with`` statements.
_LOCK_KINDS = frozenset({"lock", "rlock", "condition"})

#: Kinds that must never cross a ``ProcessPoolExecutor`` boundary:
#: locks and conditions are unpicklable or meaningless in the child,
#: a shared ``Generator`` forks its state, handles and pools are
#: process-local resources.
_UNSAFE_PICKLE_KINDS = frozenset({
    "lock", "rlock", "condition", "queue", "rng", "file",
    "thread_pool", "process_pool",
})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "reverse", "rotate", "sort", "update", "write", "writelines",
})

#: Attribute-call names that block the calling thread.  ``join`` only
#: counts with zero positional args (``",".join(xs)`` is string join),
#: ``get``/``put`` only on queue-kind receivers, and ``wait`` only when
#: the receiver is a lock *other than* one currently held (waiting on a
#: condition you hold is the sanctioned protocol — it releases the lock).
_IO_ATTRS = frozenset({
    "read_bytes", "read_text", "save", "write_bytes", "write_text",
})


@dataclass(frozen=True)
class LockId:
    """Static identity of one lock: where it is bound, not which instance."""

    module: str
    owner: str  # class name, function qualname, or "" for module scope
    name: str

    def __str__(self) -> str:
        prefix = f"{self.owner}." if self.owner else ""
        return f"{self.module}:{prefix}{self.name}"


@dataclass(frozen=True)
class Acquisition:
    """One lock acquisition (``with`` item or bare ``.acquire()``)."""

    lock: LockId
    held: tuple  # LockIds already held at this point
    lineno: int
    col: int


@dataclass(frozen=True)
class LockedCall:
    """One call site, annotated with the locks held around it."""

    held: tuple
    target: tuple | None  # FlowIndex function key when resolvable
    lineno: int
    col: int
    repr: str


@dataclass(frozen=True)
class BlockingOp:
    """A directly blocking operation (sleep/join/result/file/queue I/O)."""

    held: tuple
    what: str
    lineno: int
    col: int


@dataclass(frozen=True)
class Mutation:
    """A write to state the function does not own (closure/self/global)."""

    root: str          # source text of the mutated container
    via_self: bool     # the root is a ``self`` attribute
    held: tuple
    lineno: int
    col: int


@dataclass(frozen=True)
class CheckThenAct:
    """A non-atomic ``check membership, then store`` on a dict."""

    root: str
    via_self: bool
    held: tuple
    lineno: int
    col: int


@dataclass(frozen=True)
class PoolSubmission:
    """A callable handed to a Thread/ThreadPool/ProcessPool boundary."""

    boundary: str      # "thread" | "process"
    func_repr: str
    func_form: str     # "lambda" | "closure" | "bound-method" | "name" | "other"
    func_target: tuple | None  # resolved FlowIndex key for plain names
    unsafe_args: tuple  # ((repr, kind), ...) arguments with unsafe kinds
    lineno: int
    col: int


@dataclass(frozen=True)
class RngUse:
    """A draw from an RNG object the function does not privately own."""

    root: str
    shared_via: str    # "closure" | "self-attr" | "module-global"
    held: tuple
    lineno: int
    col: int


@dataclass
class FunctionFacts:
    """Everything the C-rules need to know about one function scope."""

    module_name: str
    qualname: str
    class_name: str | None = None
    relpath: str = ""
    is_thread_target: bool = False
    lineno: int = 0
    acquisitions: list = field(default_factory=list)
    locked_calls: list = field(default_factory=list)
    blocking_ops: list = field(default_factory=list)
    mutations: list = field(default_factory=list)
    check_then_acts: list = field(default_factory=list)
    submissions: list = field(default_factory=list)
    rng_uses: list = field(default_factory=list)
    acquired: set = field(default_factory=set)  # every LockId taken here
    nested: dict = field(default_factory=dict)  # local def name -> FunctionFacts

    @property
    def key(self) -> tuple:
        return (self.module_name, self.qualname)


@dataclass
class ConcurrencyIndex:
    """Project-wide concurrency model shared by every C-rule."""

    index: FlowIndex
    facts: dict = field(default_factory=dict)           # key -> FunctionFacts
    facts_by_module: dict = field(default_factory=dict)  # dotted -> [facts]
    lock_kinds: dict = field(default_factory=dict)       # LockId -> kind
    lock_owner_classes: set = field(default_factory=set)  # (module, class)
    thread_target_keys: set = field(default_factory=set)  # resolved fn keys

    def is_thread_target(self, facts: FunctionFacts) -> bool:
        """Whether this scope runs on a worker thread."""
        return facts.is_thread_target or facts.key in self.thread_target_keys

    def reentrant(self, lock: LockId) -> bool:
        """Whether re-acquiring ``lock`` while held is legal."""
        return self.lock_kinds.get(lock) != "lock"

    def transitive_acquires(self) -> dict:
        """Fixpoint map: function key -> every LockId it may acquire."""
        acquires = {key: set(f.acquired) for key, f in self.facts.items()}
        edges = {
            key: {c.target for c in f.locked_calls if c.target is not None}
            for key, f in self.facts.items()
        }
        changed = True
        while changed:
            changed = False
            for key, targets in edges.items():
                for target in targets:
                    extra = acquires.get(target, ())
                    if not acquires[key].issuperset(extra):
                        acquires[key] |= extra
                        changed = True
        return acquires

    def blocking_summary(self) -> dict:
        """Fixpoint map: function key -> may this function block?"""
        blocks = {key: bool(f.blocking_ops) for key, f in self.facts.items()}
        edges = {
            key: {c.target for c in f.locked_calls if c.target is not None}
            for key, f in self.facts.items()
        }
        changed = True
        while changed:
            changed = False
            for key, targets in edges.items():
                if blocks[key]:
                    continue
                if any(blocks.get(target, False) for target in targets):
                    blocks[key] = True
                    changed = True
        return blocks


# ---------------------------------------------------------------------------
# Kind inference
# ---------------------------------------------------------------------------


def _ctor_kind(node: ast.expr) -> str | None:
    """Kind created by a constructor-call expression, if recognizable."""
    if not isinstance(node, ast.Call):
        return None
    path = dotted_path(node.func)
    if path is None:
        return None
    final = path[-1]
    if final == "open" and len(path) == 1:
        return "file"
    if final == "Generator":
        # np.random.Generator(...) only; bare ``Generator`` is typing.
        return "rng" if "random" in path[:-1] else None
    return _CTOR_KINDS.get(final)


class _Scope:
    """One lexical function (or module-body) scope with kind bindings."""

    def __init__(self, module, qualname, class_name, parent, model):
        self.module = module          # ModuleInfo
        self.qualname = qualname
        self.class_name = class_name
        self.parent = parent          # _Scope | None
        self.model = model            # _ModuleModel
        self.local_names: set = set()
        self.local_kinds: dict = {}
        self.local_locks: dict = {}

    # -- chained lookups -------------------------------------------------

    def is_local(self, name: str) -> bool:
        return name in self.local_names

    def kind_of_name(self, name: str) -> str | None:
        scope = self
        while scope is not None:
            if name in scope.local_kinds:
                return scope.local_kinds[name]
            if name in scope.local_names:
                return None  # shadowed by an unclassified local
            scope = scope.parent
        return self.model.module_kinds.get(name)

    def lock_of_name(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.local_locks:
                return scope.local_locks[name]
            if name in scope.local_names:
                return None
            scope = scope.parent
        return self.model.module_locks.get(name)

    def enclosing_class(self) -> str | None:
        scope = self
        while scope is not None:
            if scope.class_name is not None:
                return scope.class_name
            scope = scope.parent
        return None

    def kind_of_expr(self, node: ast.expr) -> str | None:
        """Kind of an arbitrary expression, where statically known."""
        kind = _ctor_kind(node)
        if kind is not None:
            return kind
        if isinstance(node, ast.Name):
            return self.kind_of_name(node.id)
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            cls = self.enclosing_class()
            if cls is not None:
                return self.model.attr_kinds.get((cls, node.attr))
        return None

    def lock_of_expr(self, node: ast.expr):
        """LockId of an expression, where statically known."""
        if isinstance(node, ast.Name):
            return self.lock_of_name(node.id)
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            cls = self.enclosing_class()
            if cls is not None:
                return self.model.attr_locks.get((cls, node.attr))
        if _ctor_kind(node) in _LOCK_KINDS:
            # ``with threading.Lock():`` — an anonymous, per-use lock.
            return LockId(self.model.name, self.qualname,
                          f"<anon:{node.lineno}>")
        return None


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


class _ModuleModel:
    """Per-module kind maps: module globals and class instance attrs."""

    def __init__(self, module, con: ConcurrencyIndex):
        self.name = module.dotted_name
        self.module = module
        self.con = con
        self.module_kinds: dict = {}
        self.module_locks: dict = {}
        self.attr_kinds: dict = {}   # (class, attr) -> kind
        self.attr_locks: dict = {}   # (class, attr) -> LockId

    def collect(self) -> None:
        for node in self.module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                self._classify(node.targets[0].id, node.value, owner="",
                               kinds=self.module_kinds,
                               locks=self.module_locks)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)

    def _collect_class(self, cls: ast.ClassDef) -> None:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in self.module.walk(item):
                if not (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if (isinstance(target, ast.Attribute)
                        and _is_self(target.value)):
                    self._classify(
                        target.attr, stmt.value, owner=cls.name,
                        kinds=self.attr_kinds, locks=self.attr_locks,
                        key=(cls.name, target.attr),
                    )

    def _classify(self, name, value, owner, kinds, locks, key=None) -> None:
        key = key if key is not None else name
        kind = _ctor_kind(value)
        if kind is None:
            return
        kinds[key] = kind
        if kind in _LOCK_KINDS:
            lock = LockId(self.name, owner, name)
            # ``threading.Condition(existing_lock)`` guards the *same*
            # underlying lock: alias the identity, keep the underlying
            # (possibly non-reentrant) kind.
            if (kind == "condition" and isinstance(value, ast.Call)
                    and value.args):
                aliased = self._module_level_lock(value.args[0])
                if aliased is not None:
                    locks[key] = aliased
                    return
                self.con.lock_kinds[lock] = "rlock"  # default internal RLock
            else:
                self.con.lock_kinds[lock] = \
                    "rlock" if kind == "condition" else kind
            locks[key] = lock
            if owner:
                self.con.lock_owner_classes.add((self.name, owner))

    def _module_level_lock(self, node: ast.expr):
        if isinstance(node, ast.Name):
            return self.module_locks.get(node.id)
        return None


# ---------------------------------------------------------------------------
# The fact-collecting walker
# ---------------------------------------------------------------------------


_TRY = (ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))
_MATCH = (ast.Match,) if hasattr(ast, "Match") else ()


def _scanned_parts(stmt) -> list | None:
    """The expressions of ``stmt`` that :meth:`_FunctionWalker._walk_stmt`
    scans for calls.

    ``None`` for a simple statement, which is scanned whole.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, _MATCH):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef, *_TRY)):
        return []
    return None


def _own_facts(body) -> tuple:
    """``(names, bindings, calls)`` of ``body`` from one walk of each
    statement's own nodes (the :func:`_own_nodes` walk).

    ``names`` is every name bound in ``body``; ``bindings`` lists the
    single-name assignments and ``with ... as name`` items, in walk
    order.  ``calls`` maps the id of each expression the statement walk
    scans (a simple statement, or a compound statement's test, iterable,
    context managers or subject) to the calls in it, in
    :func:`_calls_in` order: a depth-first walk visits each subtree in
    one run, in the order a walk from its root would.  An expression
    missing from ``calls`` is walked by :func:`_calls_in` when scanned,
    so the map only saves walks.
    """
    names: set = set()
    bindings: list = []
    calls: dict = {}
    for stmt in body:
        stack = [(stmt, None)]
        while stack:
            node, unit = stack.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                names.difference_update(node.names)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                bindings.append((node.targets[0].id, node.value))
            elif isinstance(node, ast.withitem) \
                    and isinstance(node.optional_vars, ast.Name):
                bindings.append((node.optional_vars.id, node.context_expr))
            if unit is None:
                if id(node) in calls:
                    unit = node
                elif isinstance(node, ast.stmt):
                    parts = _scanned_parts(node)
                    if parts is None:
                        unit = node
                        calls[id(node)] = []
                    for part in parts or ():
                        calls[id(part)] = []
            if unit is not None and isinstance(node, ast.Call):
                calls[id(unit)].append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue  # a def binds its name; its body is its own
            stack.extend([(child, unit)
                          for child in ast.iter_child_nodes(node)])
    return names, bindings, calls


def _own_nodes(stmt) -> Iterator[ast.AST]:
    """Walk a statement without entering nested function/class bodies."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)) and node is not stmt:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node is stmt:
            continue  # the def statement itself binds a name, nothing more
        stack.extend(ast.iter_child_nodes(node))


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every call in an expression, skipping deferred (lambda) bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Lambda, ast.FunctionDef,
                                ast.AsyncFunctionDef)):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


def _chain_root(node: ast.expr):
    """Root of a subscript/attribute chain: ('name', n) or ('self', attr)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            return ("self", node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ("name", node.id)
    return None


class _FunctionWalker:
    """Collect :class:`FunctionFacts` for one scope (and its nested defs)."""

    def __init__(self, scope: _Scope, facts: FunctionFacts,
                 con: ConcurrencyIndex, call_targets: dict):
        self.scope = scope
        self.facts = facts
        self.con = con
        self.call_targets = call_targets
        self.calls: dict = {}  # filled by prepare()

    # -- scope preparation ----------------------------------------------

    def prepare(self, body, params=()) -> None:
        names, bindings, self.calls = _own_facts(body)
        self.scope.local_names = names | set(params)
        for name, value in bindings:
            self._bind_local(name, value)

    def _bind_local(self, name: str, value: ast.expr) -> None:
        kind = _ctor_kind(value)
        if kind is None:
            return
        self.scope.local_kinds[name] = kind
        if kind in _LOCK_KINDS:
            if kind == "condition" and isinstance(value, ast.Call) \
                    and value.args:
                aliased = self.scope.lock_of_expr(value.args[0])
                if aliased is not None:
                    self.scope.local_locks[name] = aliased
                    return
            lock = LockId(self.scope.model.name, self.scope.qualname, name)
            self.con.lock_kinds[lock] = "rlock" if kind == "condition" \
                else kind
            self.scope.local_locks[name] = lock

    # -- statement walk --------------------------------------------------

    def walk(self, body, held=()) -> None:
        recent_gets: dict = {}
        for stmt in body:
            self._walk_stmt(stmt, held, recent_gets)

    def _walk_stmt(self, stmt, held, recent_gets) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._nested_function(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            return  # nested classes: out of scope for the model
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt, held)
            return

        # Compound statements: scan only their expression parts here, then
        # recurse into the bodies (scanning the whole node would record
        # every call in the body twice).
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            self._track_check_then_act(stmt, held, recent_gets)
            self.walk(stmt.body, held)
            self.walk(stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held)
            self.walk(stmt.body, held)
            self.walk(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held)
            self.walk(stmt.body, held)
            self.walk(stmt.orelse, held)
            return
        if isinstance(stmt, _TRY):
            self.walk(stmt.body, held)
            for handler in stmt.handlers:
                self.walk(handler.body, held)
            self.walk(stmt.orelse, held)
            self.walk(stmt.finalbody, held)
            return
        if isinstance(stmt, _MATCH):
            self._scan_expr(stmt.subject, held)
            for case in stmt.cases:
                self.walk(case.body, held)
            return

        # Simple statements: scan everything (lambdas excluded).
        self._scan_expr(stmt, held)
        self._record_writes(stmt, held)
        self._track_check_then_act(stmt, held, recent_gets)

    def _calls(self, node) -> list:
        """``list(_calls_in(node))``, from :meth:`prepare`'s walk."""
        calls = self.calls.get(id(node))
        return list(_calls_in(node)) if calls is None else calls

    def _scan_expr(self, node, held) -> None:
        for call in self._calls(node):
            self._record_call(call, held)

    def _walk_with(self, stmt, held) -> None:
        new_held = list(held)
        for item in stmt.items:
            for node in self._calls(item.context_expr):
                self._record_call(node, tuple(new_held))
            lock = self.scope.lock_of_expr(item.context_expr)
            if lock is not None:
                self.facts.acquisitions.append(Acquisition(
                    lock=lock, held=tuple(new_held),
                    lineno=stmt.lineno, col=stmt.col_offset,
                ))
                self.facts.acquired.add(lock)
                new_held.append(lock)
        self.walk(stmt.body, tuple(new_held))

    def _nested_function(self, node) -> None:
        child_scope = _Scope(
            self.scope.module,
            f"{self.scope.qualname}.<locals>.{node.name}",
            None, self.scope, self.scope.model,
        )
        child = FunctionFacts(
            module_name=self.scope.model.name,
            qualname=child_scope.qualname,
            class_name=self.scope.enclosing_class(),
            relpath=self.facts.relpath,
            lineno=node.lineno,
        )
        walker = _FunctionWalker(child_scope, child, self.con,
                                 self.call_targets)
        params = [a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                  *node.args.kwonlyargs)]
        walker.prepare(node.body, params)
        walker.walk(node.body)
        self.facts.nested[node.name] = child
        self.con.facts[child.key] = child
        self.con.facts_by_module.setdefault(
            self.scope.model.name, []).append(child)

    # -- per-node fact recording ----------------------------------------

    def _record_call(self, node: ast.Call, held) -> None:
        self._record_blocking(node, held)
        self._record_submission(node, held)
        self._record_mutating_method(node, held)
        self._record_rng_draw(node, held)
        target = self.call_targets.get(id(node))
        self.facts.locked_calls.append(LockedCall(
            held=tuple(held), target=target,
            lineno=node.lineno, col=node.col_offset,
            repr=safe_unparse(node.func),
        ))
        # Bare ``lock.acquire()`` — tracked as an acquisition without a
        # region (the release point is not statically known).
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "acquire":
            lock = self.scope.lock_of_expr(node.func.value)
            if lock is not None:
                self.facts.acquisitions.append(Acquisition(
                    lock=lock, held=tuple(held),
                    lineno=node.lineno, col=node.col_offset,
                ))
                self.facts.acquired.add(lock)

    def _record_blocking(self, node: ast.Call, held) -> None:
        what = self._blocking_kind(node, held)
        if what is not None:
            self.facts.blocking_ops.append(BlockingOp(
                held=tuple(held), what=what,
                lineno=node.lineno, col=node.col_offset,
            ))

    def _blocking_kind(self, node: ast.Call, held) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open" and not self.scope.is_local("open"):
                return "open()"
            binding = self.con.index.bindings.get(
                self.scope.model.name, {}).get(func.id)
            if binding is not None and binding.module == "time" \
                    and binding.symbol == "sleep":
                return "time.sleep()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr == "sleep":
            return f"{safe_unparse(func)}()"
        if attr == "join" and not node.args:
            return f"{safe_unparse(func)}()"
        if attr == "result" and len(node.args) <= 1:
            return f"{safe_unparse(func)}()"
        if attr in _IO_ATTRS:
            return f"{safe_unparse(func)}()"
        if attr in ("get", "put") \
                and self.scope.kind_of_expr(func.value) == "queue":
            return f"{safe_unparse(func)}()"
        if attr == "wait":
            receiver = self.scope.lock_of_expr(func.value)
            # ``cv.wait()`` while *holding* cv releases it — that is the
            # sanctioned condition protocol, not a blocking hazard.
            # Waiting on a different condition keeps every held lock
            # pinned for the duration of the wait.
            if receiver is not None and held and receiver not in held:
                return f"{safe_unparse(func)}()"
        return None

    def _record_submission(self, node: ast.Call, held) -> None:
        func = node.func
        boundary = None
        submitted = None
        args: list = []
        path = dotted_path(func)
        if path is not None and path[-1] == "Thread":
            boundary = "thread"
            for keyword in node.keywords:
                if keyword.arg == "target":
                    submitted = keyword.value
                elif keyword.arg == "args" and isinstance(
                        keyword.value, (ast.Tuple, ast.List)):
                    args = list(keyword.value.elts)
        elif isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
            receiver_kind = self.scope.kind_of_expr(func.value)
            if receiver_kind == "thread_pool":
                boundary = "thread"
            elif receiver_kind == "process_pool":
                boundary = "process"
            if boundary is not None and node.args:
                submitted = node.args[0]
                args = list(node.args[1:])
        elif _ctor_kind(node) == "process_pool":
            # ProcessPoolExecutor(initializer=..., initargs=(...)) ships
            # the initializer and its args to every child process.
            boundary = "process"
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    submitted = keyword.value
                elif keyword.arg == "initargs" and isinstance(
                        keyword.value, (ast.Tuple, ast.List)):
                    args = list(keyword.value.elts)
            if submitted is None and not args:
                return
        if boundary is None or submitted is None:
            return
        self.facts.submissions.append(PoolSubmission(
            boundary=boundary,
            func_repr=safe_unparse(submitted),
            func_form=self._callable_form(submitted),
            func_target=self._callable_target(submitted),
            unsafe_args=tuple(
                (safe_unparse(arg), kind)
                for arg in args
                if (kind := self.scope.kind_of_expr(arg)) is not None
                and kind in _UNSAFE_PICKLE_KINDS
            ),
            lineno=node.lineno, col=node.col_offset,
        ))

    def _callable_form(self, node: ast.expr) -> str:
        if isinstance(node, ast.Lambda):
            return "lambda"
        if isinstance(node, ast.Name):
            if node.id in self.facts.nested:
                return "closure"
            return "name"
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            return "bound-method"
        return "other"

    def _callable_target(self, node: ast.expr) -> tuple | None:
        if isinstance(node, ast.Name):
            info, _ = self.con.index.resolve_function(
                self.scope.model.name, node.id)
            if info is not None:
                return info.key
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            cls = self.scope.enclosing_class()
            if cls is not None:
                return (self.scope.model.name, f"{cls}.{node.attr}")
        return None

    def _record_mutating_method(self, node: ast.Call, held) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            return
        self._record_shared_write(func.value, held,
                                  lineno=node.lineno, col=node.col_offset)

    def _record_writes(self, stmt, held) -> None:
        targets: list = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_shared_write(
                    target, held, lineno=stmt.lineno, col=stmt.col_offset,
                )
            elif isinstance(target, ast.Name) \
                    and isinstance(stmt, ast.AugAssign) \
                    and not self.scope.is_local(target.id):
                self.facts.mutations.append(Mutation(
                    root=target.id, via_self=False, held=tuple(held),
                    lineno=stmt.lineno, col=stmt.col_offset,
                ))

    def _record_shared_write(self, container: ast.expr, held,
                             lineno: int, col: int) -> None:
        root = _chain_root(container)
        if root is None:
            return
        kind, name = root
        if kind == "name":
            if self.scope.is_local(name):
                return
            root_kind = self.scope.kind_of_name(name)
            if root_kind == "queue" or root_kind in _LOCK_KINDS:
                return  # thread-safe by design
            self.facts.mutations.append(Mutation(
                root=safe_unparse(container), via_self=False,
                held=tuple(held), lineno=lineno, col=col,
            ))
        else:
            attr_kind = self.scope.kind_of_expr(
                ast.Attribute(value=ast.Name(id="self", ctx=ast.Load()),
                              attr=name, ctx=ast.Load()))
            if attr_kind == "queue" or attr_kind in _LOCK_KINDS:
                return
            self.facts.mutations.append(Mutation(
                root=safe_unparse(container), via_self=True,
                held=tuple(held), lineno=lineno, col=col,
            ))

    def _record_rng_draw(self, node: ast.Call, held) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        shared_via = None
        if isinstance(receiver, ast.Name):
            if self.scope.kind_of_name(receiver.id) != "rng":
                return
            if self.scope.is_local(receiver.id):
                return  # privately owned generator
            shared_via = "closure" if self.scope.parent is not None \
                else "module-global"
            if receiver.id in self.scope.model.module_kinds:
                shared_via = "module-global"
        elif isinstance(receiver, ast.Attribute) and _is_self(receiver.value):
            cls = self.scope.enclosing_class()
            if cls is None or self.scope.model.attr_kinds.get(
                    (cls, receiver.attr)) != "rng":
                return
            shared_via = "self-attr"
        if shared_via is None:
            return
        self.facts.rng_uses.append(RngUse(
            root=safe_unparse(receiver), shared_via=shared_via,
            held=tuple(held), lineno=node.lineno, col=node.col_offset,
        ))

    # -- check-then-act tracking ----------------------------------------

    def _track_check_then_act(self, stmt, held, recent_gets) -> None:
        if isinstance(stmt, ast.Assign):
            is_get = (isinstance(stmt.value, ast.Call)
                      and isinstance(stmt.value.func, ast.Attribute)
                      and stmt.value.func.attr == "get")
            root = _chain_root(stmt.value.func.value) if is_get else None
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                if root is not None:
                    recent_gets[target.id] = (
                        root, safe_unparse(stmt.value.func.value),
                    )
                else:
                    recent_gets.pop(target.id, None)  # rebound: stale
            return
        if not isinstance(stmt, ast.If):
            return
        container = self._checked_container(stmt.test, recent_gets)
        if container is None:
            return
        root, root_repr = container
        if self._stores_into(stmt.body, root_repr):
            self.facts.check_then_acts.append(CheckThenAct(
                root=root_repr, via_self=root[0] == "self",
                held=tuple(held), lineno=stmt.lineno, col=stmt.col_offset,
            ))

    def _checked_container(self, test: ast.expr, recent_gets):
        # Form 1: ``if key not in container:``
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.NotIn):
            root = _chain_root(test.comparators[0])
            if root is not None and self._is_shared_root(root):
                return root, safe_unparse(test.comparators[0])
        # Form 2: ``x = container.get(k)`` ... ``if x is None:`` / ``if not x:``
        checked = None
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.Is) \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None \
                and isinstance(test.left, ast.Name):
            checked = test.left.id
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
                and isinstance(test.operand, ast.Name):
            checked = test.operand.id
        if checked is not None and checked in recent_gets:
            root, root_repr = recent_gets[checked]
            if self._is_shared_root(root):
                return root, root_repr
        return None

    def _is_shared_root(self, root) -> bool:
        kind, name = root
        if kind == "self":
            return True  # rule decides via lock ownership of the class
        return not self.scope.is_local(name)

    def _stores_into(self, body, root_repr: str) -> bool:
        for stmt in body:
            for node in _own_nodes(stmt):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and safe_unparse(target.value) == root_repr:
                        return True
        return False


# ---------------------------------------------------------------------------
# Index construction
# ---------------------------------------------------------------------------


def _analyze_function(model, con, call_targets, info) -> None:
    scope = _Scope(model.module, info.qualname, info.class_name, None, model)
    facts = FunctionFacts(
        module_name=model.name,
        qualname=info.qualname,
        class_name=info.class_name,
        relpath=model.module.relpath,
        lineno=info.node.lineno,
    )
    walker = _FunctionWalker(scope, facts, con, call_targets)
    params = [a.arg for a in (*info.node.args.posonlyargs,
                              *info.node.args.args,
                              *info.node.args.kwonlyargs)]
    walker.prepare(info.node.body, params)
    walker.walk(info.node.body)
    con.facts[facts.key] = facts
    con.facts_by_module.setdefault(model.name, []).append(facts)


def _resolve_thread_targets(con: ConcurrencyIndex) -> None:
    """Mark every function that is handed to a thread boundary."""
    for facts in list(con.facts.values()):
        for submission in facts.submissions:
            if submission.boundary != "thread":
                continue
            nested = facts.nested.get(submission.func_repr)
            if nested is not None:
                nested.is_thread_target = True
                continue
            if submission.func_target is not None:
                con.thread_target_keys.add(submission.func_target)
                target = con.facts.get(submission.func_target)
                if target is not None:
                    target.is_thread_target = True


def build_concurrency(index: FlowIndex) -> ConcurrencyIndex:
    """Build the project-wide concurrency model from the flow index."""
    con = ConcurrencyIndex(index=index)
    call_targets = index.call_targets
    for module in index.project.modules:
        model = _ModuleModel(module, con)
        model.collect()
        for info in index.functions.values():
            if info.module_name == model.name:
                _analyze_function(model, con, call_targets, info)
    _resolve_thread_targets(con)
    return con
