"""One per-function interpreter under the perf and shape analyzers.

Walks every function the shared :class:`~repro.tools.flow.graph.FlowIndex`
knows about once and yields two records per function, which two thin
views serve to the rules:

* the **loop tree** (:class:`FunctionLoops`, :mod:`repro.tools.perf.loops`):
  each loop's iteration dimension, kind, targets and enclosing
  dimensions, its body counters and sites (P301–P304, P306), and the
  call sites' enclosing-dimension chains P305's depths fold;
* the **array facts** (:class:`FunctionArrays`,
  :mod:`repro.tools.shape.arrays`): symbolic shape, dtype and ownership
  per name, and the event streams S401–S406, S405's contracts and W504
  read.

The two keep their own notion of "an array": the loop tree propagates a
boolean *arrayish* set through the function's simple assignments before
the walk, while the array facts are interpreted statement by statement.

Each simple statement and loop header is walked once, in level order
(the order of ``ast.walk``).  An assignment's or a return's value is its
last child, so the value's nodes are a suffix of every level: one walk
yields the statement's nodes, whose calls the loop tree files, and,
split off, the value's nodes in ``ast.walk(value)`` order, which the
array facts scan.  A loop's stored names come from those same walks, so
the checks that read them (loop-invariant calls and gathers, appends to
a rebound list) are decided when the loop closes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

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
    "DTYPE_RANK",
    "ArrayFact",
    "FunctionArrays",
    "FunctionLoops",
    "LoopInfo",
    "broadcast_conflict",
    "interpret_functions",
    "join_dtype",
]

#: Iteration dimensions the model distinguishes, in display order.
DIMS = ("samples", "features", "estimators", "iterations", "classes")

#: Ceiling for derived loop-nest depths: keeps the interprocedural
#: fixpoint finite on recursive call chains (tree growth) and the spec
#: stable.
DEPTH_CAP = 6

#: Size names that measure one axis.
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
_CLASS_NAMES = frozenset({"n_classes"})

# -- the loop tree's vocabulary ------------------------------------------

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
_XY_VALIDATORS = frozenset({"check_array", "check_X_y"})

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

# -- the array facts' vocabulary -----------------------------------------

#: The dtype lattice: ``bool < intp/int32/int64 < float64 < object``.
#: Ranks drive :func:`join_dtype`; equal-rank joins keep the wider name.
DTYPE_RANK = {
    "bool": 0,
    "int32": 1,
    "intp": 1,
    "int64": 1,
    "float64": 2,
    "object": 3,
}

#: ``np.<name>`` allocators whose first argument is the result shape.
_SHAPE_ALLOCATORS = frozenset({"zeros", "ones", "empty", "full"})

#: ``np.<name>(template)`` allocators copying the template's shape.
_LIKE_ALLOCATORS = frozenset({"zeros_like", "ones_like", "empty_like",
                              "full_like"})

#: ``np.<name>`` calls returning a fresh array shaped like their input.
_ELEMENTWISE = frozenset({
    "abs", "sqrt", "log", "log2", "log10", "exp", "sign", "square", "clip",
    "rint", "round", "maximum", "minimum", "where", "sort", "argsort",
    "cumsum", "diff", "isnan", "isfinite", "searchsorted", "digitize",
})

#: Axis reductions: ``np.<name>(a, axis=k)`` drops dimension ``k``.
_REDUCERS = frozenset({
    "sum", "mean", "median", "min", "max", "std", "var", "nanmedian",
    "nanmean", "argmax", "argmin", "prod", "all", "any",
})

#: Reducers whose result dtype is float64 regardless of input.
_FLOAT_REDUCERS = frozenset({"mean", "median", "std", "var", "nanmedian",
                             "nanmean"})

#: Validators from :mod:`repro.learn.validation` and what they return.
_VALIDATORS = {
    "check_array": (("samples", "features"), "float64"),
    "check_predict_input": (("samples", "features"), "float64"),
    "check_X_y": (None, None),  # tuple; handled at the unpack site
    "column_or_1d": (("samples",), None),
}

#: Receiver names marking a call result as cache-stored shared state.
_CACHE_NAMES = frozenset({"cache", "memory", "fit_cache", "_fit_cache",
                          "_cache"})

#: Reductions where a 32-bit integer input can silently overflow.
_OVERFLOW_REDUCERS = frozenset({"cumsum", "sum", "prod", "bincount"})

#: In-place ndarray methods (mutate the receiver, return None/self).
_INPLACE_METHODS = frozenset({"fill", "sort", "partition", "put", "setfield"})

#: The parser's shared singletons (``ast.Load()``, ``ast.Add()`` …),
#: and with them the nodes whose only children they are: a walk reads
#: nothing below either.
_SHARED = frozenset(
    cls for base in (ast.expr_context, ast.boolop, ast.operator,
                     ast.unaryop, ast.cmpop)
    for cls in base.__subclasses__()
)
_BARE = _SHARED | {ast.Name, ast.Constant}

#: Statements whose value the array facts scan on its own.
_VALUED = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return)
_ASSIGNMENTS = (ast.Assign, ast.AugAssign, ast.AnnAssign)


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


@dataclass(frozen=True)
class ArrayFact:
    """What the model knows about one array-valued name.

    ``shape`` is a tuple over :data:`DIMS` ∪ ints ∪ ``"?"``, or ``None``
    when even the rank is unknown.  ``owner`` is one of
    ``fresh``/``caller``/``view``/``cache``; ``base`` names the aliased
    array for views.  ``contiguous`` is ``False`` only when the model
    positively derived a strided layout (transpose, column slice).
    """

    shape: tuple | None = None
    dtype: str | None = None
    owner: str = "fresh"
    base: str | None = None
    contiguous: bool | None = None

    def is_array(self) -> bool:
        """True when the model knows anything array-like about the value."""
        return self.shape is not None or self.dtype is not None


@dataclass
class FunctionArrays:
    """Array facts and rule events extracted from one function."""

    key: tuple                     # FunctionInfo.key: (module, qualname)
    relpath: str
    facts: dict = field(default_factory=dict)   # name -> ArrayFact
    #: array-seeded parameters as declared (name -> shape), frozen at
    #: function entry so rebinding ``X = check_array(X)`` keeps the
    #: caller-facing contract visible.
    param_arrays: dict = field(default_factory=dict)
    #: (line, col, text) shape-algebra mismatches (S401).
    mismatch_sites: list = field(default_factory=list)
    #: (line, col, kind, text) builtin/narrow dtype events (S402).
    dtype_sites: list = field(default_factory=list)
    #: (line, col, name, owner, base, text) non-owned mutations (S403).
    mutation_sites: list = field(default_factory=list)
    #: (line, col, kind, text) hot-loop access events (S404).
    access_sites: list = field(default_factory=list)
    #: names of parameters this function routes through a validator,
    #: directly or through a resolved in-project call (S406 fixpoint).
    validated_params: set = field(default_factory=set)
    #: (ast.Call node, [(param_name, arg_position_or_kw)]) for resolved
    #: in-project calls forwarding array parameters (S406 fixpoint).
    forwarded_params: list = field(default_factory=list)
    #: facts of every ``return`` expression, source order (contracts).
    returns: list = field(default_factory=list)
    #: True when some return statement is literally ``return self``.
    returns_self: bool = False


def join_dtype(a: str | None, b: str | None) -> str | None:
    """Least upper bound of two lattice positions (``None`` = unknown)."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    ra, rb = DTYPE_RANK.get(a), DTYPE_RANK.get(b)
    if ra is None or rb is None:
        return None
    return a if ra >= rb else b


def broadcast_conflict(a: tuple, b: tuple) -> tuple | None:
    """``(dim_a, dim_b)`` when trailing-aligned dims cannot broadcast.

    Two dimensions conflict only when both are positively known (a
    symbolic token or a literal int), differ, and neither is the
    broadcast-legal literal ``1``; ``"?"`` matches anything.
    """
    for dim_a, dim_b in zip(reversed(a), reversed(b)):
        if dim_a == "?" or dim_b == "?":
            continue
        if dim_a == 1 or dim_b == 1:
            continue
        if dim_a != dim_b:
            return (dim_a, dim_b)
    return None


def _dim_of_name(name: str) -> str | None:
    """The axis a size name measures (``n_samples``, ``max_iter`` …)."""
    if name in _ITERATION_NAMES:
        return "iterations"
    if name in _CLASS_NAMES:
        return "classes"
    return AXIS_NAMES.get(name)


def _below(level: list) -> list:
    """The next level of a level-order walk, without the shared leaves."""
    return [child for node in level if type(node) not in _BARE
            for child in ast.iter_child_nodes(node)
            if type(child) not in _SHARED]


def _level_walk(root: ast.AST, value: ast.AST | None = None) -> tuple:
    """``(ast.walk(root), ast.walk(value))`` as lists, from one walk and
    without the shared leaves.

    ``value`` is ``root``'s last child (an assignment's or a return's
    value) or ``None``.  Level by level, the value's nodes follow the
    others, so they are split off as they come.
    """
    every, under = [root], []
    head = [child for child in _below([root]) if child is not value]
    tail = [] if value is None else [value]
    while head or tail:
        every += head
        every += tail
        under += tail
        head, tail = _below(head), _below(tail)
    return every, under


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


def _dedupe(items: list) -> list:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _is_newaxis(node: ast.expr) -> bool:
    """``None``/``np.newaxis`` inside a subscript inserts a dim."""
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    return isinstance(node, ast.Attribute) and node.attr == "newaxis"


class _Frame:
    """One open loop: its record, the names and attributes stored in it
    so far, and the checks that wait for those sets to be complete.

    A loop's stores are collected from the walks of its own statements
    and headers, so a check against them ("is this call's argument
    loop-invariant?") is decided when the loop closes.
    """

    __slots__ = ("loop", "array_dim", "chain", "loop_vars", "names",
                 "attrs", "appends", "invariant", "gathers")

    def __init__(self, loop: LoopInfo, array_dim, outer: "_Frame | None"):
        self.loop = loop
        self.array_dim = array_dim     # the array facts' reading of the dim
        self.chain = (*outer.chain, loop.dim) if outer else (loop.dim,)
        targets = set(loop.target_names)
        self.loop_vars = outer.loop_vars | targets if outer else targets
        self.names: set = set()        # names stored anywhere in the loop
        self.attrs: set = set()        # attributes stored anywhere in it
        self.appends: list = []        # receiver names of list appends
        self.invariant: list = []      # (names, attrs, site) hoist candidates
        self.gathers: list = []        # (index names, slot, fallback event)

    def collect(self, nodes) -> None:
        """Add the names and attributes ``nodes`` store."""
        for node in nodes:
            kind = type(node)
            if kind is ast.Name:
                if type(node.ctx) is ast.Store:
                    self.names.add(node.id)
            elif kind is ast.Attribute and type(node.ctx) is ast.Store:
                self.attrs.add(node.attr)


class _Interpreter:
    """Builds one function's :class:`FunctionLoops` and
    :class:`FunctionArrays` in one walk of its body."""

    def __init__(self, info: FunctionInfo, module: ModuleInfo):
        self.info = info
        self.module = module
        self.np = module.numpy_aliases
        self.loops = FunctionLoops(key=info.key, relpath=module.relpath)
        self.out = FunctionArrays(key=info.key, relpath=module.relpath)
        self.params = set(info.all_param_names(skip_self=False))
        self.arrays = self._seed_arrays()
        self._frames: list[_Frame] = []
        self._seed_facts()

    # -- seeding --------------------------------------------------------

    def _seed_arrays(self) -> set:
        """The loop tree's arrayish parameters."""
        arrays = set()
        args = self.info.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in ("X", "y") or arg.arg.startswith(("X_", "y_")):
                arrays.add(arg.arg)
            elif arg.annotation is not None and \
                    _annotation_is_array(arg.annotation):
                arrays.add(arg.arg)
        return arrays

    def _seed_facts(self) -> None:
        for name in self.params:
            if name == "X" or name.startswith("X_"):
                self.out.facts[name] = ArrayFact(
                    shape=("samples", "features"), owner="caller")
                self.out.param_arrays[name] = ("samples", "features")
            elif name == "y" or name.startswith("y_"):
                self.out.facts[name] = ArrayFact(
                    shape=("samples",), owner="caller")
                self.out.param_arrays[name] = ("samples",)
        # Learned estimator state the whole substrate shares: classes_
        # holds the sorted label values, one per class.
        self.out.facts["self.classes_"] = ArrayFact(
            shape=("classes",), owner="cache")

    # -- the loop tree's array-ness -------------------------------------

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
                    node.func.id in _XY_VALIDATORS:
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
                    and node.value.func.id in _XY_VALIDATORS
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

    # -- dimensions -----------------------------------------------------

    def _classify_size(self, node: ast.expr) -> tuple:
        """``(dim, entry)`` a size expression (``X.shape[0]`` …) names.

        ``dim`` is the loop tree's reading: a :data:`DIMS` token other
        than ``classes``, or ``None``; ``len`` counts samples of an
        arrayish value, and a sum or product takes its first classified
        operand.  ``entry`` is the array facts' reading: a token other
        than ``iterations``, a literal int or ``"?"``, with ``.shape[k]``
        and ``len`` read off the operand's known shape.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return None, node.value
        if isinstance(node, (ast.Name, ast.Attribute)):
            dim = _dim_of_name(node.id if isinstance(node, ast.Name)
                               else node.attr)
            return (None if dim == "classes" else dim,
                    "?" if dim in (None, "iterations") else dim)
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr == "shape":
            axis = node.slice
            dim = None
            if isinstance(axis, ast.Constant) and isinstance(axis.value, int):
                if axis.value == 0:
                    dim = "samples"
                elif axis.value == 1:
                    dim = "features"
            base = self._lookup(node.value.value)
            if base is not None and base.shape is not None and \
                    isinstance(axis, ast.Constant) and \
                    isinstance(axis.value, int) and \
                    axis.value < len(base.shape):
                return dim, base.shape[axis.value]
            if isinstance(axis, ast.Constant) and axis.value == 0:
                return dim, "samples"
            if isinstance(axis, ast.Constant) and axis.value == 1:
                return dim, "features"
            return dim, "?"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "len" \
                    and node.args:
                fact = self._lookup(node.args[0])
                return ("samples" if self._is_arrayish(node.args[0]) else None,
                        fact.shape[0] if fact is not None and fact.shape
                        else "?")
            return None, "?"
        if isinstance(node, ast.BinOp):
            return (self._classify_size(node.left)[0]
                    or self._classify_size(node.right)[0], "?")
        return None, "?"

    def _classify_iter(self, node: ast.expr) -> tuple:
        """``(dim, chunked, direct, array_dim)`` for a loop's iterable.

        ``array_dim`` is the array facts' reading of the dimension: the
        range bound's entry or the iterated value's leading dimension,
        when that is a :data:`DIMS` token.
        """
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "range" and node.args:
                chunked = len(node.args) == 3
                bound = node.args[1] if len(node.args) >= 2 else node.args[0]
                dim, entry = self._classify_size(bound)
                return dim, chunked, False, entry if entry in DIMS else None
            if isinstance(func, ast.Name) and func.id == "enumerate" \
                    and node.args:
                dim, chunked, _, array_dim = self._classify_iter(node.args[0])
                return dim, chunked, self._is_arrayish(node.args[0]), array_dim
            array_dim = self._leading_dim(node)
            name = numpy_attr(func, self.np)
            if name == "unique":
                return "classes", False, False, array_dim
            if isinstance(func, ast.Attribute) and \
                    func.attr == "permutation" and node.args:
                return (self._classify_size(node.args[0])[0] or "samples",
                        False, True, array_dim)
            if name in _ARRAY_MAKERS:
                return None, False, True, array_dim
            return None, False, False, array_dim
        array_dim = self._leading_dim(node)
        if self._is_arrayish(node):
            hint = safe_unparse(node, 200)
            dim = "features" if ("feature" in hint or "column" in hint) \
                else "samples"
            return dim, False, True, array_dim
        return None, False, False, array_dim

    def _leading_dim(self, node: ast.expr) -> str | None:
        fact = self._eval(node)
        if fact is not None and fact.shape:
            head = fact.shape[0]
            return head if head in DIMS else None
        return None

    # -- walking --------------------------------------------------------

    def run(self) -> tuple:
        """``(FunctionLoops, FunctionArrays)`` of the function."""
        # Arrays come from the function's own assignments, not from those
        # of a nested def; a cache handle anywhere below it still counts.
        self._propagate_arrays([
            node for node in self.module.own_nodes(self.info.node)
            if type(node) is ast.Assign
        ])
        source = set()
        for node in self.module.iter_subtree(self.info.node):
            kind = type(node)
            if kind is ast.Name:
                source.add(node.id)
            elif kind is ast.Attribute:
                source.add(node.attr)
        self.loops.touches_cache = bool(
            (_CACHE_MARKERS & source) or (_CACHE_MARKERS & self.params)
        )
        self._visit_block(self.info.node.body)
        for loop in self.loops.loops:
            chain = (*loop.enclosing_dims, loop.dim)
            counts: dict = {}
            for dim in chain:
                if dim is not None and dim != "classes":
                    counts[dim] = counts.get(dim, 0) + 1
            for dim, count in counts.items():
                value = min(DEPTH_CAP, count)
                if value > self.loops.own_dims.get(dim, 0):
                    self.loops.own_dims[dim] = value
        # A gather's slot holds the event its loops decided on, if any.
        self.out.access_sites = [
            site[0] if type(site) is list else site
            for site in self.out.access_sites
            if type(site) is not list or site[0] is not None
        ]
        # Expression walking and binding evaluation can visit one site
        # twice (e.g. a BinOp nested in an assignment value); events are
        # per-site facts, so collapse duplicates preserving order.
        for attr in ("mismatch_sites", "dtype_sites", "mutation_sites",
                     "access_sites"):
            setattr(self.out, attr, _dedupe(getattr(self.out, attr)))
        return self.loops, self.out

    def _visit_block(self, stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._enter_loop(stmt, kind="for")
            elif isinstance(stmt, ast.While):
                self._enter_loop(stmt, kind="while")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                # Nested scopes are modelled separately (or not); what
                # they store still counts as stored in an enclosing loop.
                self._collect(stmt)
            elif isinstance(stmt, ast.If):
                self._scan_expr(stmt.test)
                self._visit_block(stmt.body)
                self._visit_block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr)
                    self._collect(item.optional_vars)
                self._visit_block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._visit_block(stmt.body)
                for handler in stmt.handlers:
                    self._collect(handler.type)
                    self._visit_block(handler.body)
                self._visit_block(stmt.orelse)
                self._visit_block(stmt.finalbody)
            else:
                self._scan_statement(stmt)

    def _enter_loop(self, stmt, kind: str) -> None:
        if kind == "for":
            # The header is evaluated in the outer scope.
            header = self._scan_expr(stmt.iter) + _level_walk(stmt.target)[0]
            dim, chunked, direct, array_dim = self._classify_iter(stmt.iter)
            targets = tuple(sorted(store_names(stmt.target)))
            iter_source = safe_unparse(stmt.iter, 60)
        else:
            header, _ = _level_walk(stmt.test)
            self._scan_arrays(header)  # the array facts read it outside
            dim, chunked, direct, array_dim = None, False, False, None
            targets = ()
            iter_source = safe_unparse(stmt.test, 60)
        outer = self._frames[-1] if self._frames else None
        loop = LoopInfo(
            lineno=stmt.lineno, col=stmt.col_offset, kind=kind, dim=dim,
            chunked=chunked, direct=direct, iter_source=iter_source,
            target_names=targets,
            enclosing_dims=outer.chain if outer else (),
            qualname=self.info.qualname,
        )
        self.loops.loops.append(loop)
        frame = _Frame(loop, array_dim, outer)
        self._frames.append(frame)
        if kind == "while":
            self._scan_calls(header)  # re-evaluated every iteration
        else:
            frame.collect(header)
        self._visit_block(stmt.body)
        self._visit_block(stmt.orelse)
        self._frames.pop()
        self._close(frame, outer)

    def _close(self, frame: _Frame, outer: _Frame | None) -> None:
        """Decide the checks that waited for ``frame``'s stores."""
        loop = frame.loop
        loop.appends += sum(1 for receiver in frame.appends
                            if not receiver & frame.names)
        loop.invariant_calls += [
            site for names, attrs, site in frame.invariant
            if not (names & frame.names) and not (attrs & frame.attrs)
        ]
        # A gather is invariant when no enclosing loop stores its index.
        for index_names, slot, fallback in frame.gathers:
            if index_names & frame.names:
                slot[0] = fallback
            elif outer is not None:
                outer.gathers.append((index_names, slot, fallback))
        if outer is not None:
            outer.names |= frame.names
            outer.attrs |= frame.attrs

    def _collect(self, node: ast.AST | None) -> None:
        """Count what ``node``, which no scan walks, stores as stored in
        the innermost loop."""
        if node is not None and self._frames:
            self._frames[-1].collect(_level_walk(node)[0])

    def _scan_expr(self, node: ast.expr | None) -> list:
        """Both readings' events of one expression; returns its nodes."""
        if node is None:
            return []
        nodes, _ = _level_walk(node)
        self._scan_arrays(nodes)
        self._scan_calls(nodes)
        return nodes

    def _scan_statement(self, stmt: ast.stmt) -> None:
        valued = isinstance(stmt, _VALUED)
        every, under = _level_walk(stmt, stmt.value if valued else None)
        frame = self._frames[-1] if self._frames else None
        if frame is not None and isinstance(stmt, _ASSIGNMENTS):
            self._scan_assignment(stmt, frame)
        self._scan_calls(every)
        if not valued:
            for node in every:
                if type(node) is ast.Call:
                    self._array_call(node)
            return
        self._scan_arrays(under)
        if isinstance(stmt, ast.Assign):
            value_fact = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, stmt.value, value_fact)
                self._record_store_mutation(target, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, stmt.value,
                                  self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._record_store_mutation(stmt.target, stmt, augmented=True)
        elif stmt.value is not None:  # return
            if isinstance(stmt.value, ast.Name) and stmt.value.id == "self":
                self.out.returns_self = True
            else:
                self.out.returns.append(self._eval(stmt.value))

    # -- the loop tree's events -----------------------------------------

    def _scan_calls(self, nodes) -> None:
        """The loop tree's events of ``nodes``, which it also collects
        the innermost loop's stores from."""
        if not self._frames:
            for node in nodes:
                if type(node) is ast.Call:
                    self.loops.call_records.append((node, ()))
            return
        frame = self._frames[-1]
        for node in nodes:
            if type(node) is ast.Call:
                self._loop_call(node, frame)
        frame.collect(nodes)

    def _scan_assignment(self, stmt, frame: _Frame) -> None:
        loop = frame.loop
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            if isinstance(target, ast.Subscript) \
                    and self._is_arrayish(target.value) \
                    and (names_in(target.slice) & frame.loop_vars):
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

    def _loop_call(self, node: ast.Call, frame: _Frame) -> None:
        self.loops.call_records.append((node, frame.chain))
        loop = frame.loop
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
                if isinstance(node.func.value, ast.Subscript):
                    loop.appends += 1
                else:  # counted unless the loop rebinds the receiver
                    frame.appends.append(names_in(node.func.value))
            if node.func.attr == "fit" and \
                    isinstance(node.func.value, ast.Name):
                loop.fit_calls.append(
                    (node.lineno, node.col_offset, node.func.value.id)
                )
        if np_name in _HOISTABLE:
            arg_nodes = list(node.args) + [kw.value for kw in node.keywords]
            names = set().union(*map(names_in, arg_nodes)) if arg_nodes \
                else set()
            attrs = set().union(*map(_attr_names, arg_nodes)) if arg_nodes \
                else set()
            has_nested_call = any(
                isinstance(n, ast.Call)
                for arg in arg_nodes for n in ast.walk(arg)
            )  # a nested call (an RNG draw, say) may change every iteration
            if not has_nested_call:
                frame.invariant.append((names, attrs, (
                    node.lineno, node.col_offset, safe_unparse(node, 60))))

    # -- the array facts: expression evaluation -------------------------

    def _lookup(self, node: ast.expr) -> ArrayFact | None:
        if isinstance(node, ast.Name):
            return self.out.facts.get(node.id)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            return self.out.facts.get(f"self.{node.attr}")
        return None

    def _shape_from_arg(self, node: ast.expr) -> tuple | None:
        """Result shape of an allocator's shape argument."""
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._classify_size(e)[1] for e in node.elts)
        if isinstance(node, ast.Attribute) and node.attr == "shape":
            base = self._lookup(node.value)
            if base is not None:
                return base.shape
            return None
        return (self._classify_size(node)[1],)

    @staticmethod
    def _dtype_of_expr(node: ast.expr | None) -> str | None:
        """Lattice position named by a dtype argument expression."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return {"float": "float64", "int": "intp",
                    "bool": "bool"}.get(node.id)
        if isinstance(node, ast.Attribute):
            return {
                "float64": "float64", "float_": "float64",
                "double": "float64", "int32": "int32", "int64": "int64",
                "intp": "intp", "bool_": "bool", "object_": "object",
            }.get(node.attr)
        return None

    def _eval(self, node: ast.expr) -> ArrayFact | None:
        """Array fact of an expression, or ``None`` when unknown."""
        direct = self._lookup(node)
        if direct is not None:
            return direct
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                base = self._eval(node.value)
                if base is not None and base.shape is not None:
                    return ArrayFact(
                        shape=tuple(reversed(base.shape)), dtype=base.dtype,
                        owner="view",
                        base=node.value.id
                        if isinstance(node.value, ast.Name) else None,
                        contiguous=False if len(base.shape) > 1 else None,
                    )
            return None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                return self._eval_matmul(node, node.left, node.right)
            return self._eval_binop(node)
        if isinstance(node, ast.Compare) and len(node.comparators) == 1:
            left = self._eval(node.left)
            right = self._eval(node.comparators[0])
            fact = self._broadcast(node, left, right)
            if fact is not None:
                return replace(fact, dtype="bool")
            return None
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            return self._eval(node.body) or self._eval(node.orelse)
        return None

    def _broadcast(self, node: ast.expr, left: ArrayFact | None,
                   right: ArrayFact | None) -> ArrayFact | None:
        """Join two operand facts, recording S401 broadcast conflicts."""
        if left is None or not left.is_array():
            if right is None:
                return None
            return ArrayFact(shape=right.shape, dtype=right.dtype)
        if right is None or not right.is_array():
            return ArrayFact(shape=left.shape, dtype=left.dtype)
        if left.shape is not None and right.shape is not None:
            conflict = broadcast_conflict(left.shape, right.shape)
            if conflict is not None:
                self.out.mismatch_sites.append((
                    node.lineno, node.col_offset,
                    f"operands broadcast {conflict[0]!r} against "
                    f"{conflict[1]!r} in {safe_unparse(node, 60)}",
                ))
            shape = left.shape if len(left.shape) >= len(right.shape) \
                else right.shape
        else:
            shape = left.shape or right.shape
        return ArrayFact(shape=shape, dtype=join_dtype(left.dtype,
                                                       right.dtype))

    def _eval_binop(self, node: ast.BinOp) -> ArrayFact | None:
        left = self._eval(node.left)
        right = self._eval(node.right)
        # True division always lands in float64 regardless of operands.
        fact = self._broadcast(node, left, right)
        if fact is not None and isinstance(node.op, ast.Div):
            return replace(fact, dtype="float64")
        return fact

    def _eval_matmul(self, node: ast.expr, left_node: ast.expr,
                     right_node: ast.expr) -> ArrayFact | None:
        left = self._eval(left_node)
        right = self._eval(right_node)
        if left is None or right is None or \
                left.shape is None or right.shape is None:
            return None
        inner_left = left.shape[-1]
        inner_right = right.shape[0] if len(right.shape) == 1 \
            else right.shape[-2]
        if inner_left != inner_right and "?" not in (inner_left, inner_right) \
                and 1 not in (inner_left, inner_right):
            self.out.mismatch_sites.append((
                node.lineno, node.col_offset,
                f"inner dimensions {inner_left!r} x {inner_right!r} do not "
                f"contract in {safe_unparse(node, 60)}",
            ))
        out_shape: tuple = ()
        if len(left.shape) > 1:
            out_shape += (left.shape[0],)
        if len(right.shape) > 1:
            out_shape += (right.shape[-1],)
        if not out_shape:
            return ArrayFact(shape=None,
                             dtype=join_dtype(left.dtype, right.dtype))
        return ArrayFact(shape=out_shape,
                         dtype=join_dtype(left.dtype, right.dtype))

    def _eval_subscript(self, node: ast.Subscript) -> ArrayFact | None:
        base = self._eval(node.value)
        if base is None or base.shape is None:
            return None
        base_name = node.value.id if isinstance(node.value, ast.Name) \
            else None
        entries = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        shape: list = []
        fancy = False
        strided = False
        base_pos = 0
        for entry in entries:
            if _is_newaxis(entry):
                shape.append(1)  # inserts a dim, consumes none
                continue
            dim = base.shape[base_pos] if base_pos < len(base.shape) \
                else "?"
            if isinstance(entry, ast.Slice):
                if entry.lower is None and entry.upper is None and \
                        entry.step is None:
                    shape.append(dim)
                else:
                    shape.append("?")
                    if entry.step is not None:
                        strided = True
                if base_pos > 0:
                    strided = True
            elif isinstance(entry, ast.Constant) and \
                    isinstance(entry.value, int):
                pass  # integer index drops the dimension
            else:
                index_fact = self._eval(entry)
                if index_fact is not None and index_fact.is_array():
                    fancy = True
                    shape.append(index_fact.shape[0]
                                 if index_fact.shape else "?")
                else:
                    pass  # scalar-valued expression drops the dimension
            base_pos += 1
        shape.extend(base.shape[base_pos:])
        if fancy:
            # Fancy indexing copies: the result is a fresh buffer.
            return ArrayFact(shape=tuple(shape), dtype=base.dtype,
                             owner="fresh")
        return ArrayFact(
            shape=tuple(shape), dtype=base.dtype, owner="view",
            base=base_name,
            contiguous=False if strided else None,
        )

    def _eval_call(self, node: ast.Call) -> ArrayFact | None:
        np_name = numpy_attr(node.func, self.np)
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        dtype_expr = kwargs.get("dtype")
        if np_name is not None:
            return self._eval_np_call(node, np_name, dtype_expr)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _VALIDATORS and func.id != "check_X_y":
                shape, dtype = _VALIDATORS[func.id]
                base = node.args[0].id if node.args and \
                    isinstance(node.args[0], ast.Name) else None
                # asarray may return the caller's buffer unchanged, so
                # a validated array still aliases its input.
                return ArrayFact(shape=shape, dtype=dtype, owner="view",
                                 base=base)
            return None
        if isinstance(func, ast.Attribute):
            recv_fact = self._eval(func.value)
            if func.attr == "astype":
                target = node.args[0] if node.args else dtype_expr
                if recv_fact is not None:
                    return ArrayFact(shape=recv_fact.shape,
                                     dtype=self._dtype_of_expr(target),
                                     owner="fresh")
                return ArrayFact(dtype=self._dtype_of_expr(target),
                                 owner="fresh")
            if func.attr == "copy" and recv_fact is not None:
                return replace(recv_fact, owner="fresh", base=None,
                               contiguous=None)
            if func.attr in ("ravel", "flatten") and recv_fact is not None \
                    and recv_fact.shape is not None:
                total = recv_fact.shape[0] if len(recv_fact.shape) == 1 \
                    else "?"
                owner = "view" if func.attr == "ravel" else "fresh"
                return ArrayFact(shape=(total,), dtype=recv_fact.dtype,
                                 owner=owner, base=recv_fact.base)
            if func.attr == "reshape" and recv_fact is not None:
                return ArrayFact(shape=None, dtype=recv_fact.dtype,
                                 owner="view", base=recv_fact.base)
            if func.attr in ("sum", "mean", "max", "min", "std", "var") \
                    and recv_fact is not None:
                return self._reduce(recv_fact, kwargs.get("axis"),
                                    float_result=func.attr
                                    in ("mean", "std", "var"))
            if func.attr == "fit_transform" and \
                    self._is_cache_receiver(func.value):
                return ArrayFact(shape=("samples", "?"), owner="cache")
        return None

    def _eval_np_call(self, node: ast.Call, np_name: str,
                      dtype_expr: ast.expr | None) -> ArrayFact | None:
        args = node.args
        dtype = self._dtype_of_expr(dtype_expr)
        if np_name in _SHAPE_ALLOCATORS and args:
            shape = self._shape_from_arg(args[0])
            if dtype is None and np_name != "full":
                dtype = "float64"  # a full's dtype follows its fill value
            return ArrayFact(shape=shape, dtype=dtype, owner="fresh",
                             contiguous=True)
        if np_name in _LIKE_ALLOCATORS and args:
            template = self._eval(args[0])
            if template is not None:
                return ArrayFact(shape=template.shape,
                                 dtype=dtype or template.dtype,
                                 owner="fresh", contiguous=True)
            return ArrayFact(dtype=dtype, owner="fresh")
        if np_name == "arange":
            size = self._classify_size(args[-1])[1] if args else "?"
            return ArrayFact(shape=(size,), dtype=dtype or "intp",
                             owner="fresh", contiguous=True)
        if np_name in ("asarray", "ascontiguousarray", "asfortranarray"):
            source = self._eval(args[0]) if args else None
            base = args[0].id if args and isinstance(args[0], ast.Name) \
                else None
            return ArrayFact(
                shape=source.shape if source else None,
                dtype=dtype or (source.dtype if source else None),
                owner="view", base=base,
                contiguous=True if np_name != "asarray" else None,
            )
        if np_name == "array":
            source = self._eval(args[0]) if args else None
            return ArrayFact(
                shape=source.shape if source else None,
                dtype=dtype or (source.dtype if source else None),
                owner="fresh", contiguous=True,
            )
        if np_name in ("dot", "matmul") and len(args) >= 2:
            return self._eval_matmul(node, args[0], args[1])
        if np_name in ("concatenate", "stack", "vstack", "hstack",
                       "column_stack"):
            return self._eval_stack(node, np_name, args)
        if np_name == "unique":
            return ArrayFact(shape=("classes",), owner="fresh")
        if np_name in ("flatnonzero", "nonzero", "bincount"):
            return ArrayFact(shape=("?",), dtype="intp", owner="fresh")
        if np_name in _REDUCERS and args:
            source = self._eval(args[0])
            if source is not None:
                kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
                return self._reduce(source, kwargs.get("axis"),
                                    float_result=np_name in _FLOAT_REDUCERS)
            return None
        if np_name in _ELEMENTWISE and args:
            source = self._eval(args[0])
            if source is not None:
                dtype_out = source.dtype
                if np_name in ("argsort", "searchsorted", "digitize"):
                    dtype_out = "intp"
                elif np_name in ("isnan", "isfinite"):
                    dtype_out = "bool"
                elif np_name in ("sqrt", "log", "log2", "log10", "exp"):
                    dtype_out = "float64"
                if np_name in ("maximum", "minimum", "where") and \
                        len(args) > 1:
                    extra = [self._eval(a) for a in args[1:]]
                    for other in extra:
                        if other is not None:
                            dtype_out = join_dtype(dtype_out, other.dtype)
                return ArrayFact(shape=source.shape, dtype=dtype_out,
                                 owner="fresh")
        if np_name == "transpose" and args:
            source = self._eval(args[0])
            if source is not None and source.shape is not None:
                return ArrayFact(shape=tuple(reversed(source.shape)),
                                 dtype=source.dtype, owner="view",
                                 base=args[0].id
                                 if isinstance(args[0], ast.Name) else None,
                                 contiguous=False)
        return None

    def _eval_stack(self, node: ast.Call, np_name: str,
                    args: list) -> ArrayFact | None:
        if not args:
            return None
        parts_node = args[0]
        parts = parts_node.elts \
            if isinstance(parts_node, (ast.Tuple, ast.List)) else []
        facts = [self._eval(part) for part in parts]
        known = [f for f in facts if f is not None and f.shape is not None]
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        axis_node = kwargs.get("axis") or (args[1] if len(args) > 1 else None)
        axis = axis_node.value if isinstance(axis_node, ast.Constant) and \
            isinstance(axis_node.value, int) else 0
        dtype = None
        for fact in known:
            dtype = fact.dtype if dtype is None \
                else join_dtype(dtype, fact.dtype)
        if len(known) >= 2 and np_name in ("concatenate", "vstack",
                                           "hstack", "stack"):
            head = known[0].shape
            for other in known[1:]:
                conflict = self._stack_conflict(np_name, axis, head,
                                                other.shape)
                if conflict is not None:
                    self.out.mismatch_sites.append((
                        node.lineno, node.col_offset,
                        f"{np_name} joins incompatible dimensions "
                        f"{conflict[0]!r} and {conflict[1]!r} in "
                        f"{safe_unparse(node, 60)}",
                    ))
                    break
        if np_name == "column_stack" and known:
            width = len(parts) if parts and len(known) == len(parts) else "?"
            return ArrayFact(shape=(known[0].shape[0], width), dtype=dtype,
                             owner="fresh")
        if known:
            head = known[0].shape
            if np_name == "stack":
                return ArrayFact(shape=("?",) + head, dtype=dtype,
                                 owner="fresh")
            out = list(head)
            join_axis = 0 if np_name in ("concatenate", "vstack") and axis == 0 \
                else (len(out) - 1 if out else 0)
            if np_name == "concatenate":
                join_axis = axis if axis < len(out) else 0
            if out:
                out[join_axis] = "?"
            return ArrayFact(shape=tuple(out), dtype=dtype, owner="fresh")
        return ArrayFact(dtype=dtype, owner="fresh")

    @staticmethod
    def _stack_conflict(np_name: str, axis: int, a: tuple, b: tuple):
        """Conflicting non-join dims of two stacked shapes, if provable."""
        if np_name == "stack":
            pairs = zip(a, b)
        elif len(a) != len(b):
            return None
        elif np_name == "vstack":
            pairs = [(a[i], b[i]) for i in range(1, len(a))]
        elif np_name == "hstack":
            pairs = [(a[i], b[i]) for i in range(len(a) - 1)] \
                if len(a) > 1 else []
        else:
            pairs = [(a[i], b[i]) for i in range(len(a)) if i != axis]
        for dim_a, dim_b in pairs:
            if dim_a == "?" or dim_b == "?":
                continue
            if dim_a != dim_b:
                return (dim_a, dim_b)
        return None

    @staticmethod
    def _reduce(source: ArrayFact, axis_node,
                float_result: bool) -> ArrayFact:
        dtype = "float64" if float_result else source.dtype
        if source.shape is None:
            return ArrayFact(dtype=dtype, owner="fresh")
        axis = axis_node.value if isinstance(axis_node, ast.Constant) and \
            isinstance(axis_node.value, int) else None
        if axis is None:
            return ArrayFact(shape=None, dtype=dtype, owner="fresh")
        shape = tuple(dim for position, dim in enumerate(source.shape)
                      if position != axis)
        return ArrayFact(shape=shape, dtype=dtype, owner="fresh")

    @staticmethod
    def _is_cache_receiver(node: ast.expr) -> bool:
        names = {n.lower() for n in names_in(node)}
        attrs = {n.attr.lower() for n in ast.walk(node)
                 if isinstance(n, ast.Attribute)}
        return bool((names | attrs) & _CACHE_NAMES)

    # -- the array facts: bindings and events ---------------------------

    def _bind_target(self, target: ast.expr, value: ast.expr,
                     fact: ArrayFact | None) -> None:
        if isinstance(target, ast.Name):
            if fact is not None:
                self.out.facts[target.id] = fact
            elif target.id in self.out.facts and \
                    not isinstance(value, ast.Name):
                # Rebinding a tracked name to an unknown value forgets it.
                del self.out.facts[target.id]
        elif isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self" and fact is not None:
            self.out.facts[f"self.{target.attr}"] = fact
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Name) and \
                value.func.id == "check_X_y" and len(target.elts) == 2:
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
            if len(names) == 2:
                bases = [a.id if isinstance(a, ast.Name) else None
                         for a in value.args[:2]]
                bases += [None, None]
                self.out.facts[names[0]] = ArrayFact(
                    shape=("samples", "features"), dtype="float64",
                    owner="view", base=bases[0])
                self.out.facts[names[1]] = ArrayFact(
                    shape=("samples",), owner="view", base=bases[1])

    def _mutation_owner(self, fact: ArrayFact | None) -> tuple | None:
        """``(owner, root)`` when mutating this fact hits non-owned data."""
        if fact is None:
            return None
        if fact.owner in ("caller", "cache"):
            return (fact.owner, fact.base)
        if fact.owner == "view" and fact.base is not None:
            root = self.out.facts.get(fact.base)
            seen = {fact.base}
            while root is not None and root.owner == "view" and \
                    root.base is not None and root.base not in seen:
                seen.add(root.base)
                root = self.out.facts.get(root.base)
            if root is not None and root.owner in ("caller", "cache"):
                return (root.owner, fact.base)
        return None

    def _record_store_mutation(self, target: ast.expr, stmt,
                               augmented: bool = False) -> None:
        if isinstance(target, ast.Subscript):
            fact = self._eval(target.value)
            hit = self._mutation_owner(fact)
            if hit is not None:
                name = safe_unparse(target.value, 30)
                self.out.mutation_sites.append((
                    stmt.lineno, stmt.col_offset, name, hit[0], hit[1],
                    safe_unparse(stmt, 60),
                ))
        elif augmented and isinstance(target, ast.Name):
            fact = self.out.facts.get(target.id)
            if fact is not None and fact.is_array():
                hit = self._mutation_owner(fact)
                if hit is not None:
                    self.out.mutation_sites.append((
                        stmt.lineno, stmt.col_offset, target.id, hit[0],
                        hit[1], safe_unparse(stmt, 60),
                    ))

    def _scan_arrays(self, nodes) -> None:
        """The array facts' events of one expression's nodes."""
        for sub in nodes:
            kind = type(sub)
            if kind is ast.Call:
                self._array_call(sub)
            elif kind is ast.BinOp or \
                    (kind is ast.Compare and len(sub.comparators) == 1):
                self._eval(sub)  # records broadcast conflicts as a side effect
            elif kind is ast.Subscript and type(sub.ctx) is ast.Load:
                self._scan_access(sub)

    def _array_call(self, node: ast.Call) -> None:
        np_name = numpy_attr(node.func, self.np)
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        self._eval(node)  # record shape events for dot/concatenate/...

        # S402: builtin dtype names (float is implicit, int is
        # platform-width) at astype/constructor sites.
        dtype_expr = kwargs.get("dtype")
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "astype" and node.args:
            dtype_expr = node.args[0]
        if isinstance(dtype_expr, ast.Name) and \
                dtype_expr.id in ("float", "int"):
            self.out.dtype_sites.append((
                node.lineno, node.col_offset, f"builtin-{dtype_expr.id}",
                safe_unparse(node, 60),
            ))
        # S402: a 32-bit integer array feeding an overflow-prone reduction.
        if np_name in _OVERFLOW_REDUCERS and node.args:
            arg_fact = self._eval(node.args[0])
            if arg_fact is not None and arg_fact.dtype == "int32":
                self.out.dtype_sites.append((
                    node.lineno, node.col_offset, "int32-reduce",
                    safe_unparse(node, 60),
                ))

        # S403: in-place mutation through out= or an in-place method.
        out_expr = kwargs.get("out")
        if out_expr is not None:
            hit = self._mutation_owner(self._eval(out_expr))
            if hit is not None:
                self.out.mutation_sites.append((
                    node.lineno, node.col_offset,
                    safe_unparse(out_expr, 30), hit[0], hit[1],
                    safe_unparse(node, 60),
                ))
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _INPLACE_METHODS:
            hit = self._mutation_owner(self._eval(node.func.value))
            if hit is not None:
                self.out.mutation_sites.append((
                    node.lineno, node.col_offset,
                    safe_unparse(node.func.value, 30), hit[0],
                    hit[1], safe_unparse(node, 60),
                ))

        # S406 inputs: validator calls and forwarded array parameters.
        callee = node.func.id if isinstance(node.func, ast.Name) else None
        if callee in _VALIDATORS or np_name in ("asarray",
                                                "ascontiguousarray"):
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in self.params:
                    self.out.validated_params.add(arg.id)
        forwarded = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id in self.params and \
                    self.out.facts.get(arg.id, ArrayFact(None)).is_array():
                forwarded.append((arg.id, position))
        for kw in node.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) and \
                    kw.value.id in self.params:
                forwarded.append((kw.value.id, kw.arg))
        if forwarded:
            self.out.forwarded_params.append((node, forwarded))

    def _scan_access(self, node: ast.Subscript) -> None:
        """S404 events: hot-loop gathers and strided reads."""
        if not self._frames:
            return
        base = self._eval(node.value)
        if base is None or not base.is_array():
            return
        frame = self._frames[-1]
        entries = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        index_names = set()
        fancy = False
        column_slice = False
        for position, entry in enumerate(entries):
            if _is_newaxis(entry) or isinstance(entry, ast.Slice):
                continue
            index_fact = self._eval(entry)
            if index_fact is not None and index_fact.is_array():
                fancy = True
            index_names |= names_in(entry)
            if position > 0 and len(entries) > 1 and \
                    isinstance(entries[0], ast.Slice):
                column_slice = True
        hot = frame.array_dim == "samples" or frame.loop.kind == "while"
        kind = None
        if column_slice and hot:
            kind = "strided-column"
        elif base.contiguous is False and hot:
            kind = "non-contiguous"
        if not fancy and kind is None:
            return
        text = safe_unparse(node, 60)
        fallback = kind and (node.lineno, node.col_offset, kind, text)
        if not fancy:
            self.out.access_sites.append(fallback)
            return
        # An invariant gather unless an enclosing loop stores an index
        # name: the loops decide when they close.
        slot = [(node.lineno, node.col_offset, "invariant-gather", text)]
        self.out.access_sites.append(slot)
        if index_names:
            frame.gathers.append((index_names, slot, fallback))


def interpret_functions(index: FlowIndex) -> dict:
    """``function key -> (FunctionLoops, FunctionArrays)`` for every
    function in the shared flow index, each interpreted once."""
    functions = {}
    for key, info in index.functions.items():
        module = index.modules.get(info.module_name)
        if module is None:
            continue
        functions[key] = _Interpreter(info, module).run()
    return functions
