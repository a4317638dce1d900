"""Per-function loop-nest model for the perf analyzer.

Walks every function the shared :class:`~repro.tools.flow.graph.FlowIndex`
knows about and extracts the structure the P-rules query:

* the tree of ``for``/``while`` loops with each loop's **iteration
  dimension** — which axis of the problem it walks (``samples``,
  ``features``, ``estimators``, ``iterations``, ``classes``) — inferred
  from the iterable (``range(X.shape[0])``, ``rng.permutation(n)``,
  direct iteration over a known ndarray, ``self.n_estimators`` …);
* per-loop body facts: element-wise ndarray writes, array-traversing
  operations, per-element list appends, quadratic growth sites
  (``x = np.append(x, …)``), numpy allocations, and loop-invariant pure
  numpy calls that could be hoisted;
* per-call-site enclosing-dimension chains, which
  :mod:`repro.tools.perf.complexity` folds over the call graph into
  per-estimator loop-nest depths.

The model is deliberately approximate in the same direction as the flow
and race models: ndarray-ness is propagated from ``X``/``y`` parameters,
``check_array``/``check_X_y`` results and ``np.*`` constructors through
simple assignments only, comprehensions are treated as opaque
expressions, and nested ``def``s are separate (unmodelled) scopes — so
the rules built on top err toward silence, not false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.tools.flow.graph import FlowIndex, FunctionInfo
from repro.tools.lint.engine import (
    ModuleInfo,
    names_in,
    numpy_attr,
    safe_unparse,
    store_names,
)

__all__ = [
    "AXIS_NAMES",
    "DEPTH_CAP",
    "DIMS",
    "FunctionLoops",
    "LoopInfo",
    "LoopModel",
    "build_loop_model",
]

#: Iteration dimensions the model distinguishes, in display order.
DIMS = ("samples", "features", "estimators", "iterations", "classes")

#: Ceiling for derived loop-nest depths: keeps the interprocedural
#: fixpoint finite on recursive call chains (tree growth) and the spec
#: stable.
DEPTH_CAP = 6

#: Size names that measure one axis (the shape analyzer reads them too).
AXIS_NAMES = {
    **dict.fromkeys(("n_samples", "n_rows", "n_points", "n_queries"),
                    "samples"),
    **dict.fromkeys(("n_features", "n_cols", "n_columns"), "features"),
    **dict.fromkeys(("n_estimators", "n_members", "n_dags", "n_trees",
                     "n_models"), "estimators"),
}
_ITERATION_NAMES = frozenset({
    "max_iter", "n_iter", "n_epochs", "epochs", "n_restarts", "n_attempts",
    "optimization_steps", "n_splits", "n_folds", "max_depth", "max_width",
    "n_bins", "max_bins", "resolution",
})

#: ``np.<name>(...)`` calls whose result is an ndarray (used to propagate
#: array-ness through assignments).
_ARRAY_MAKERS = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "zeros_like", "ones_like", "empty_like", "full_like", "arange",
    "linspace", "sort", "argsort", "unique", "concatenate", "vstack",
    "hstack", "stack", "column_stack", "where", "flatnonzero", "nonzero",
    "cumsum", "diff", "clip", "digitize", "searchsorted", "bincount",
    "quantile", "percentile", "abs", "sqrt", "log", "exp", "sign", "square",
    "array_split", "split", "maximum", "minimum", "rint", "round",
})

#: Validators whose results are (X, y)-style ndarrays.
_VALIDATORS = frozenset({"check_array", "check_X_y"})

#: Pure, allocation-free-to-hoist ``np.*`` calls: recomputing one of
#: these with loop-invariant arguments on every iteration is waste, and
#: hoisting it cannot change results (no fresh mutable buffer semantics,
#: unlike ``np.zeros``-style allocators).
_HOISTABLE = frozenset({
    "unique", "sort", "argsort", "linspace", "log", "log2", "log10", "exp",
    "sqrt", "quantile", "percentile", "median", "bincount", "cumsum",
    "diff", "flatnonzero", "nonzero", "searchsorted",
})

#: Copy-producing growth constructs: rebinding a name through one of
#: these with itself as an argument copies the accumulated prefix every
#: iteration (quadratic total work).
_GROWTH_CALLS = frozenset({"append", "concatenate", "vstack", "hstack"})

#: Fresh-buffer allocators (P306: allocation inside per-row hot loops).
_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full", "array", "arange",
    "zeros_like", "empty_like", "ones_like", "full_like",
})

#: Names whose presence in a function marks it as already routed through
#: the fit cache (P304 exemption).
_CACHE_MARKERS = frozenset({"FitCache", "memory", "cache", "_fit_cache",
                            "fit_cache"})


@dataclass
class LoopInfo:
    """One ``for``/``while`` loop and the body facts the P-rules need."""

    lineno: int
    col: int
    kind: str                      # "for" | "while"
    dim: str | None                # iteration dimension, if classified
    chunked: bool                  # stepped range(...) — sanctioned chunking
    direct: bool                   # for-in directly over an ndarray
    iter_source: str               # unparsed iterable (display only)
    target_names: tuple            # loop variable names
    enclosing_dims: tuple          # dims of enclosing loops, outermost first
    qualname: str = ""
    elem_writes: int = 0           # arr[<loop var>] = ... stores in own body
    array_ops: int = 0             # array-traversing calls in own body
    appends: int = 0               # per-element list appends in own body
    growth_sites: list = field(default_factory=list)     # (line, col, text)
    alloc_sites: list = field(default_factory=list)      # (line, col, text)
    invariant_calls: list = field(default_factory=list)  # (line, col, text)
    fit_calls: list = field(default_factory=list)        # (line, col, recv)
    made_estimators: dict = field(default_factory=dict)  # name -> ctor text

    @property
    def nest_depth(self) -> int:
        """1-based depth counting only dimension-classified enclosures."""
        return 1 + sum(1 for dim in self.enclosing_dims if dim is not None)


@dataclass
class FunctionLoops:
    """Loop facts of one function plus its call-site dimension chains."""

    key: tuple                     # FunctionInfo.key: (module, qualname)
    relpath: str
    loops: list = field(default_factory=list)        # flat, source order
    own_dims: dict = field(default_factory=dict)     # dim -> max nest depth
    call_records: list = field(default_factory=list)  # (ast.Call, dim chain)
    touches_cache: bool = False


@dataclass
class LoopModel:
    """Every function's loop facts plus the interprocedural depth map."""

    index: FlowIndex
    functions: dict = field(default_factory=dict)    # key -> FunctionLoops
    _depths: dict | None = None

    def depth_summary(self) -> dict:
        """``(module, qualname) -> {dim: loop-nest depth}`` over the call graph.

        A function's depth along a dimension is the deepest chain of
        that dimension's loops reachable from it: its own nests, plus —
        for every resolved in-project call — the enclosing loops at the
        call site stacked on the callee's depth.  Computed as a monotone
        fixpoint capped at :data:`DEPTH_CAP`, so recursion (tree growth)
        terminates deterministically.
        """
        if self._depths is not None:
            return self._depths
        targets = self.index.call_targets
        depths: dict = {key: dict(fn.own_dims)
                        for key, fn in self.functions.items()}
        for _ in range(4 * DEPTH_CAP):
            changed = False
            for key, fn in self.functions.items():
                current = dict(depths[key])
                for call_node, chain in fn.call_records:
                    target = targets.get(id(call_node))
                    if target is None or target not in depths:
                        continue
                    counts: dict = {}
                    for dim in chain:
                        if dim is not None:
                            counts[dim] = counts.get(dim, 0) + 1
                    for dim in set(counts) | set(depths[target]):
                        value = min(
                            DEPTH_CAP,
                            counts.get(dim, 0) + depths[target].get(dim, 0),
                        )
                        if value > current.get(dim, 0):
                            current[dim] = value
                if current != depths[key]:
                    depths[key] = current
                    changed = True
            if not changed:
                break
        self._depths = depths
        return depths


def _stores(node: ast.AST) -> tuple:
    """``(names, attrs)`` written anywhere under ``node``, in one walk.

    ``names`` is :func:`store_names`; ``attrs`` the attribute names
    (``self.x = ...``).
    """
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)) \
                and isinstance(n.ctx, ast.Store):
            if isinstance(n, ast.Name):
                names.add(n.id)
            else:
                attrs.add(n.attr)
    return names, attrs


def _attr_names(node: ast.AST) -> set:
    """Every attribute name referenced anywhere under ``node``."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _annotation_is_array(node: ast.expr) -> bool:
    """True for annotations naming an ndarray itself (not a container of).

    ``np.ndarray`` and ``np.ndarray | None`` qualify;
    ``Sequence[tuple[np.ndarray, ...]]`` does not — iterating such a
    parameter walks its container, not an array axis.
    """
    if isinstance(node, ast.Name):
        return node.id == "ndarray"
    if isinstance(node, ast.Attribute):
        return node.attr == "ndarray"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_is_array(node.left) \
            or _annotation_is_array(node.right)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in ("ndarray", "np.ndarray", "numpy.ndarray")
    return False


class _FunctionWalker:
    """Builds one :class:`FunctionLoops` from a function's AST."""

    def __init__(self, info: FunctionInfo, module: ModuleInfo):
        self.info = info
        self.module = module
        self.np = module.numpy_aliases
        self.out = FunctionLoops(key=info.key, relpath=module.relpath)
        self.arrays = self._seed_arrays()
        self._loop_stack: list[LoopInfo] = []
        self._tainted_stack: list[tuple] = []  # (store names, stored attrs)

    # -- array-ness -----------------------------------------------------

    def _seed_arrays(self) -> set:
        arrays = set()
        args = self.info.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in ("X", "y") or arg.arg.startswith(("X_", "y_")):
                arrays.add(arg.arg)
            elif arg.annotation is not None and \
                    _annotation_is_array(arg.annotation):
                arrays.add(arg.arg)
        return arrays

    def _is_arrayish(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.arrays
        if isinstance(node, ast.Subscript):
            return self._is_arrayish(node.value)
        if isinstance(node, ast.BinOp):
            return self._is_arrayish(node.left) or self._is_arrayish(node.right)
        if isinstance(node, ast.Compare):
            return self._is_arrayish(node.left) or any(
                self._is_arrayish(c) for c in node.comparators)
        if isinstance(node, ast.UnaryOp):
            return self._is_arrayish(node.operand)
        if isinstance(node, ast.Call):
            name = numpy_attr(node.func, self.np)
            if name in _ARRAY_MAKERS:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "permutation":
                    return True  # rng.permutation(...) is an index array
                return self._is_arrayish(node.func.value)
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _VALIDATORS:
                return True
        return False

    def _propagate_arrays(self, assigns) -> None:
        """Two sweeps over the simple assignments, in ``ast.walk`` order,
        to grow the arrayish set."""
        for _ in range(2):
            before = len(self.arrays)
            for node in assigns:
                value_is_array = self._is_arrayish(node.value)
                validated = (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in _VALIDATORS
                )
                shape_unpack = (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "shape"
                )
                for target in node.targets:
                    if isinstance(target, ast.Name) and value_is_array:
                        self.arrays.add(target.id)
                    elif isinstance(target, ast.Tuple) and \
                            (validated or value_is_array) and not shape_unpack:
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                self.arrays.add(element.id)
            if len(self.arrays) == before:
                break

    # -- dimension classification --------------------------------------

    def _classify_size(self, node: ast.expr) -> str | None:
        """Dimension named by a loop-bound expression (``X.shape[0]`` …)."""
        if isinstance(node, ast.Name):
            return self._dim_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._dim_of_name(node.attr)
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr == "shape":
            axis = node.slice
            if isinstance(axis, ast.Constant) and isinstance(axis.value, int):
                if axis.value == 0:
                    return "samples"
                if axis.value == 1:
                    return "features"
            return None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "len" \
                    and node.args and self._is_arrayish(node.args[0]):
                return "samples"
            return None
        if isinstance(node, ast.BinOp):
            return self._classify_size(node.left) \
                or self._classify_size(node.right)
        return None

    @staticmethod
    def _dim_of_name(name: str) -> str | None:
        if name in _ITERATION_NAMES:
            return "iterations"
        return AXIS_NAMES.get(name)

    def _classify_iter(self, node: ast.expr) -> tuple:
        """``(dim, chunked, direct)`` for a loop's iterable expression."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "range" and node.args:
                chunked = len(node.args) == 3
                bound = node.args[1] if len(node.args) >= 2 else node.args[0]
                return self._classify_size(bound), chunked, False
            if isinstance(func, ast.Name) and func.id == "enumerate" \
                    and node.args:
                dim, chunked, _ = self._classify_iter(node.args[0])
                return dim, chunked, self._is_arrayish(node.args[0])
            name = numpy_attr(func, self.np)
            if name == "unique":
                return "classes", False, False
            if isinstance(func, ast.Attribute) and \
                    func.attr == "permutation" and node.args:
                return (self._classify_size(node.args[0]) or "samples",
                        False, True)
            if name in _ARRAY_MAKERS:
                return None, False, True
            return None, False, False
        if self._is_arrayish(node):
            hint = safe_unparse(node, 200)
            dim = "features" if ("feature" in hint or "column" in hint) \
                else "samples"
            return dim, False, True
        return None, False, False

    # -- walking --------------------------------------------------------

    def run(self) -> FunctionLoops:
        assigns = []
        source = set()
        for node in self.module.walk(self.info.node):
            if isinstance(node, ast.Assign):
                assigns.append(node)
            elif isinstance(node, ast.Name):
                source.add(node.id)
            elif isinstance(node, ast.Attribute):
                source.add(node.attr)
        self._propagate_arrays(assigns)
        all_params = set(self.info.all_param_names(skip_self=False))
        self.out.touches_cache = bool(
            (_CACHE_MARKERS & source) or (_CACHE_MARKERS & all_params)
        )
        self._visit_block(self.info.node.body)
        for loop in self.out.loops:
            chain = (*loop.enclosing_dims, loop.dim)
            counts: dict = {}
            for dim in chain:
                if dim is not None and dim != "classes":
                    counts[dim] = counts.get(dim, 0) + 1
            for dim, count in counts.items():
                value = min(DEPTH_CAP, count)
                if value > self.out.own_dims.get(dim, 0):
                    self.out.own_dims[dim] = value
        return self.out

    def _visit_block(self, stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._enter_loop(stmt, kind="for")
            elif isinstance(stmt, ast.While):
                self._enter_loop(stmt, kind="while")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # nested scopes are modelled separately (or not)
            elif isinstance(stmt, ast.If):
                self._scan_expr(stmt.test)
                self._visit_block(stmt.body)
                self._visit_block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr)
                self._visit_block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._visit_block(stmt.body)
                for handler in stmt.handlers:
                    self._visit_block(handler.body)
                self._visit_block(stmt.orelse)
                self._visit_block(stmt.finalbody)
            else:
                self._scan_statement(stmt)

    def _enter_loop(self, stmt, kind: str) -> None:
        if kind == "for":
            dim, chunked, direct = self._classify_iter(stmt.iter)
            targets = tuple(sorted(store_names(stmt.target)))
            iter_source = safe_unparse(stmt.iter, 60)
            self._scan_expr(stmt.iter)  # header evaluated in the outer scope
        else:
            dim, chunked, direct = None, False, False
            targets = ()
            iter_source = safe_unparse(stmt.test, 60)
        loop = LoopInfo(
            lineno=stmt.lineno, col=stmt.col_offset, kind=kind, dim=dim,
            chunked=chunked, direct=direct, iter_source=iter_source,
            target_names=targets,
            enclosing_dims=tuple(l.dim for l in self._loop_stack),
            qualname=self.info.qualname,
        )
        self.out.loops.append(loop)
        self._loop_stack.append(loop)
        self._tainted_stack.append(_stores(stmt))  # targets included
        if kind == "while":
            self._scan_expr(stmt.test)  # re-evaluated every iteration
        self._visit_block(stmt.body)
        self._visit_block(stmt.orelse)
        self._loop_stack.pop()
        self._tainted_stack.pop()

    def _scan_expr(self, node: ast.expr | None) -> None:
        if node is None:
            return
        loop = self._loop_stack[-1] if self._loop_stack else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._scan_call(sub, loop)

    def _scan_statement(self, stmt: ast.stmt) -> None:
        loop = self._loop_stack[-1] if self._loop_stack else None
        if loop is not None:
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._scan_assignment(stmt, loop)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._scan_call(node, loop)

    def _scan_assignment(self, stmt, loop: LoopInfo) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        loop_vars = set().union(
            *(l.target_names for l in self._loop_stack)) if self._loop_stack \
            else set()
        for target in targets:
            if isinstance(target, ast.Subscript) \
                    and self._is_arrayish(target.value) \
                    and (names_in(target.slice) & loop_vars):
                loop.elem_writes += 1
        value = stmt.value
        if value is None:
            return
        # Quadratic growth: a name rebound through a copy-producing
        # construct that takes the name itself as input.
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            grows = False
            if isinstance(value, ast.Call):
                name = numpy_attr(value.func, self.np)
                if name in _GROWTH_CALLS and target.id in names_in(value):
                    grows = True
            elif isinstance(value, ast.BinOp) \
                    and isinstance(value.op, ast.Add) \
                    and not isinstance(stmt, ast.AugAssign) \
                    and target.id in names_in(value) \
                    and (self._is_arrayish(value)
                         or isinstance(value.left, (ast.List, ast.ListComp))
                         or isinstance(value.right, (ast.List, ast.ListComp))):
                grows = True
            if grows:
                loop.growth_sites.append(
                    (stmt.lineno, stmt.col_offset, safe_unparse(stmt, 60))
                )
        # Estimator construction for P304 (``model = clone(est)`` /
        # ``model = SomeClass(...)``).
        if isinstance(value, ast.Call) and len(targets) == 1 \
                and isinstance(targets[0], ast.Name) \
                and isinstance(value.func, ast.Name):
            loop.made_estimators[targets[0].id] = value.func.id

    def _scan_call(self, node: ast.Call, loop: LoopInfo | None) -> None:
        self.out.call_records.append(
            (node, tuple(l.dim for l in self._loop_stack))
        )
        if loop is None:
            return
        np_name = numpy_attr(node.func, self.np)
        is_array_op = bool(
            (np_name is not None and node.args)
            or (isinstance(node.func, ast.Attribute)
                and self._is_arrayish(node.func.value))
            or any(self._is_arrayish(arg) for arg in node.args)
        )
        if is_array_op:
            loop.array_ops += 1
        if np_name in _ALLOCATORS:
            loop.alloc_sites.append(
                (node.lineno, node.col_offset, safe_unparse(node, 60))
            )
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "append" and \
                    not self._is_arrayish(node.func.value):
                receiver_names = names_in(node.func.value)
                tainted = self._tainted_stack[-1][0] if self._tainted_stack \
                    else set()
                if not (receiver_names & tainted) or \
                        isinstance(node.func.value, ast.Subscript):
                    loop.appends += 1
            if node.func.attr == "fit" and \
                    isinstance(node.func.value, ast.Name):
                loop.fit_calls.append(
                    (node.lineno, node.col_offset, node.func.value.id)
                )
        if np_name in _HOISTABLE and self._tainted_stack:
            tainted_names, tainted_attrs = self._tainted_stack[-1]
            arg_nodes = list(node.args) + [kw.value for kw in node.keywords]
            names = set().union(*map(names_in, arg_nodes)) if arg_nodes \
                else set()
            attrs = set().union(*map(_attr_names, arg_nodes)) if arg_nodes \
                else set()
            has_nested_call = any(
                isinstance(n, ast.Call)
                for arg in arg_nodes for n in ast.walk(arg)
            )  # a nested call (an RNG draw, say) may change every iteration
            if not has_nested_call and not (names & tainted_names) \
                    and not (attrs & tainted_attrs):
                loop.invariant_calls.append(
                    (node.lineno, node.col_offset, safe_unparse(node, 60))
                )


def build_loop_model(index: FlowIndex) -> LoopModel:
    """Extract loop facts for every function in the shared flow index."""
    model = LoopModel(index=index)
    for key, info in index.functions.items():
        module = index.modules.get(info.module_name)
        if module is None:
            continue
        walker = _FunctionWalker(info, module)
        model.functions[key] = walker.run()
    return model
