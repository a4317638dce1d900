"""Symbolic array-fact model for the shape analyzer.

Walks every function the shared :class:`~repro.tools.flow.graph.FlowIndex`
knows about and abstract-interprets its ndarray expressions into the
facts the S-rules query:

* a **symbolic shape** over the same dimension vocabulary the perf
  analyzer infers (``samples``/``features``/``estimators``/
  ``iterations``/``classes``), plus literal ints and ``"?"`` for
  dimensions the model cannot name — ``X`` enters a function as
  ``("samples", "features")``, ``y`` as ``("samples",)``, and shapes
  flow through slicing, transposition, reductions, stacking, and the
  linear-algebra operators;
* a **dtype lattice** position — ``bool < intp/int32 < float64 <
  object`` — propagated from allocators, ``astype``, validators, and
  arithmetic, so the rules can see a silent upcast or a
  platform-dependent width before it changes bits;
* an **ownership tag** — ``fresh`` (allocated here), ``caller``
  (a parameter: somebody else's buffer), ``view`` (basic slice /
  ``asarray`` alias of another fact), ``cache`` (handed out by a
  :class:`~repro.learn.cache.FitCache`-style memo and shared
  read-only) — which is what lets S403 prove an in-place write lands
  in somebody else's array;
* per-site **event streams** the rules consume: shape-algebra
  mismatches at ``dot``/``matmul``/``concatenate``/broadcast sites,
  builtin-dtype drift points, mutations of non-owned arrays, and
  fancy/strided accesses inside hot loops of ``_COMPILED_SUBSTRATE``
  modules.

The model is deliberately approximate in the same direction as the
flow, race, and perf models: facts are only derived from simple
assignments and well-known numpy constructors, an unrecognized
expression yields *no* fact rather than a guess, and every rule
requires positively known facts on both sides before it fires — so the
suite errs toward silence, not false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from repro.tools.flow.graph import FlowIndex, FunctionInfo

__all__ = [
    "DIM_TOKENS",
    "DTYPE_RANK",
    "ArrayFact",
    "FunctionArrays",
    "ShapeModel",
    "broadcast_conflict",
    "build_shape_model",
    "join_dtype",
]

#: Symbolic dimension tokens the model distinguishes (perf's vocabulary).
DIM_TOKENS = ("samples", "features", "estimators", "iterations", "classes")

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

#: Parameter-name prefixes seeded as arrays on function entry.
_SAMPLE_NAMES = frozenset({"n_samples", "n_rows", "n_points", "n_queries"})
_FEATURE_NAMES = frozenset({"n_features", "n_cols", "n_columns"})
_ESTIMATOR_NAMES = frozenset({"n_estimators", "n_members", "n_trees",
                              "n_models", "n_dags"})
_CLASS_NAMES = frozenset({"n_classes"})

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


@dataclass(frozen=True)
class ArrayFact:
    """What the model knows about one array-valued name.

    ``shape`` is a tuple over :data:`DIM_TOKENS` ∪ ints ∪ ``"?"``, or
    ``None`` when even the rank is unknown.  ``owner`` is one of
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


@dataclass
class ShapeModel:
    """Every function's array facts plus the interprocedural summaries."""

    index: FlowIndex
    functions: dict = field(default_factory=dict)   # key -> FunctionArrays
    _validated: dict | None = None

    def validated_params(self) -> dict:
        """``function key -> set of param names reaching a validator``.

        A parameter counts as validated when its function calls
        ``check_array``/``check_X_y``/``column_or_1d``/``np.asarray`` on
        it, or forwards it (positionally or by keyword) to a resolved
        in-project function that validates the receiving parameter.
        Computed as a small monotone fixpoint over the call graph, so a
        platform ``predict`` delegating to a helper that validates
        still counts.
        """
        if self._validated is not None:
            return self._validated
        targets = {}
        for caller, sites in self.index.calls.items():
            for site in sites:
                if site.target is not None:
                    targets[(caller, id(site.node))] = site.target
        validated = {key: set(fn.validated_params)
                     for key, fn in self.functions.items()}
        for _ in range(8):
            changed = False
            for key, fn in self.functions.items():
                for call_node, param_args in fn.forwarded_params:
                    target = targets.get((key, id(call_node)))
                    if target is None or target not in self.functions:
                        continue
                    info = self.index.functions.get(target)
                    if info is None:
                        continue
                    callee_params = info.all_param_names()
                    for param, slot in param_args:
                        if param in validated[key]:
                            continue
                        if isinstance(slot, int):
                            name = callee_params[slot] \
                                if slot < len(callee_params) else None
                        else:
                            name = slot
                        if name is not None and name in validated[target]:
                            validated[key].add(param)
                            changed = True
            if not changed:
                break
        self._validated = validated
        return validated


def _numpy_aliases(index: FlowIndex, module_name: str) -> set:
    aliases = {"np", "numpy"}
    for local, binding in index.bindings.get(module_name, {}).items():
        if binding.symbol is None and (
                binding.module == "numpy"
                or binding.module.startswith("numpy.")):
            aliases.add(local)
    return aliases


def _safe_unparse(node: ast.AST, limit: int = 60) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse never fails on ast.parse output
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _dedupe(items: list) -> list:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _names_in(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _store_names(node: ast.AST) -> set:
    return {
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _dim_of_name(name: str) -> str | None:
    if name in _SAMPLE_NAMES:
        return "samples"
    if name in _FEATURE_NAMES:
        return "features"
    if name in _ESTIMATOR_NAMES:
        return "estimators"
    if name in _CLASS_NAMES:
        return "classes"
    return None


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


class _FunctionInterpreter:
    """Builds one :class:`FunctionArrays` from a function's AST."""

    def __init__(self, info: FunctionInfo, relpath: str, np_aliases: set):
        self.info = info
        self.np = np_aliases
        self.out = FunctionArrays(key=info.key, relpath=relpath)
        self.params = set(info.all_param_names(skip_self=False))
        self._loop_stack: list[tuple] = []  # (dim|None, kind, stored names)
        self._seed_params()

    # -- seeding --------------------------------------------------------

    def _seed_params(self) -> None:
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

    # -- expression evaluation -----------------------------------------

    def _np_name(self, func: ast.expr) -> str | None:
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.np):
            return func.attr
        return None

    def _lookup(self, node: ast.expr) -> ArrayFact | None:
        if isinstance(node, ast.Name):
            return self.out.facts.get(node.id)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            return self.out.facts.get(f"self.{node.attr}")
        return None

    def _classify_size(self, node: ast.expr):
        """One shape entry for a size expression (token, int, or ``"?"``)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name):
            return _dim_of_name(node.id) or "?"
        if isinstance(node, ast.Attribute):
            return _dim_of_name(node.attr) or "?"
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr == "shape":
            base = self._lookup(node.value.value)
            axis = node.slice
            if base is not None and base.shape is not None and \
                    isinstance(axis, ast.Constant) and \
                    isinstance(axis.value, int) and \
                    axis.value < len(base.shape):
                return base.shape[axis.value]
            if isinstance(axis, ast.Constant) and axis.value == 0:
                return "samples"
            if isinstance(axis, ast.Constant) and axis.value == 1:
                return "features"
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "len" \
                and node.args:
            fact = self._lookup(node.args[0])
            if fact is not None and fact.shape:
                return fact.shape[0]
        return "?"

    def _shape_from_arg(self, node: ast.expr) -> tuple | None:
        """Result shape of an allocator's shape argument."""
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._classify_size(e) for e in node.elts)
        if isinstance(node, ast.Attribute) and node.attr == "shape":
            base = self._lookup(node.value)
            if base is not None:
                return base.shape
            return None
        entry = self._classify_size(node)
        return (entry,)

    def _dtype_of_expr(self, node: ast.expr | None) -> str | None:
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

    def _builtin_dtype_kind(self, node: ast.expr | None) -> str | None:
        """``"float"``/``"int"`` when the dtype expr is the builtin name."""
        if isinstance(node, ast.Name) and node.id in ("float", "int"):
            return node.id
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
                    f"{conflict[1]!r} in {_safe_unparse(node)}",
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
                f"contract in {_safe_unparse(node)}",
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
            if self._is_newaxis(entry):
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
            base=base_name if base.owner != "fresh" or base_name is None
            else base_name,
            contiguous=False if strided else None,
        )

    def _eval_call(self, node: ast.Call) -> ArrayFact | None:
        np_name = self._np_name(node.func)
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
            if np_name == "full" and dtype is None:
                dtype = None  # value-derived; unknown
            elif dtype is None and np_name != "full":
                dtype = "float64"
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
            size = self._classify_size(args[-1]) if args else "?"
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
        if np_name in ("flatnonzero", "nonzero"):
            return ArrayFact(shape=("?",), dtype="intp", owner="fresh")
        if np_name == "bincount":
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
                        f"{_safe_unparse(node)}",
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

    def _reduce(self, source: ArrayFact, axis_node,
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
    def _is_newaxis(node: ast.expr) -> bool:
        """``None``/``np.newaxis`` inside a subscript inserts a dim."""
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        return isinstance(node, ast.Attribute) and node.attr == "newaxis"

    def _is_cache_receiver(self, node: ast.expr) -> bool:
        names = {n.lower() for n in _names_in(node)}
        attrs = {n.attr.lower() for n in ast.walk(node)
                 if isinstance(n, ast.Attribute)}
        return bool((names | attrs) & _CACHE_NAMES)

    # -- walking --------------------------------------------------------

    def run(self) -> FunctionArrays:
        self._visit_block(self.info.node.body)
        # Expression walking and binding evaluation can visit one site
        # twice (e.g. a BinOp nested in an assignment value); events are
        # per-site facts, so collapse duplicates preserving order.
        for attr in ("mismatch_sites", "dtype_sites", "mutation_sites",
                     "access_sites"):
            setattr(self.out, attr, _dedupe(getattr(self.out, attr)))
        return self.out

    def _visit_block(self, stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._enter_loop(stmt, kind="for")
            elif isinstance(stmt, ast.While):
                self._enter_loop(stmt, kind="while")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # nested scopes are separate (unmodelled)
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
            elif isinstance(stmt, ast.Return):
                self._scan_expr(stmt.value)
                if stmt.value is not None:
                    if isinstance(stmt.value, ast.Name) and \
                            stmt.value.id == "self":
                        self.out.returns_self = True
                    else:
                        self.out.returns.append(self._eval(stmt.value))
            else:
                self._scan_statement(stmt)

    def _enter_loop(self, stmt, kind: str) -> None:
        if kind == "for":
            self._scan_expr(stmt.iter)
            dim = self._loop_dim(stmt.iter)
        else:
            self._scan_expr(stmt.test)
            dim = None
        self._loop_stack.append((dim, kind, _store_names(stmt)))
        self._visit_block(stmt.body)
        self._visit_block(stmt.orelse)
        self._loop_stack.pop()

    def _loop_dim(self, iter_node: ast.expr) -> str | None:
        """Dimension a for-loop walks (subset of perf's classifier)."""
        if isinstance(iter_node, ast.Call) and \
                isinstance(iter_node.func, ast.Name):
            if iter_node.func.id == "range" and iter_node.args:
                bound = iter_node.args[1] if len(iter_node.args) >= 2 \
                    else iter_node.args[0]
                entry = self._classify_size(bound)
                return entry if entry in DIM_TOKENS else None
            if iter_node.func.id == "enumerate" and iter_node.args:
                return self._loop_dim(iter_node.args[0])
        fact = self._eval(iter_node)
        if fact is not None and fact.shape:
            head = fact.shape[0]
            return head if head in DIM_TOKENS else None
        return None

    def _scan_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            value_fact = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, stmt.value, value_fact)
                self._record_store_mutation(target, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._scan_expr(stmt.value)
            if stmt.value is not None:
                self._bind_target(stmt.target, stmt.value,
                                  self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            self._record_store_mutation(stmt.target, stmt, augmented=True)
        else:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._scan_call(node)

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

    # -- mutation & event recording ------------------------------------

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
                name = _safe_unparse(target.value, limit=30)
                self.out.mutation_sites.append((
                    stmt.lineno, stmt.col_offset, name, hit[0], hit[1],
                    _safe_unparse(stmt),
                ))
        elif augmented and isinstance(target, ast.Name):
            fact = self.out.facts.get(target.id)
            if fact is not None and fact.is_array():
                hit = self._mutation_owner(fact)
                if hit is not None:
                    self.out.mutation_sites.append((
                        stmt.lineno, stmt.col_offset, target.id, hit[0],
                        hit[1], _safe_unparse(stmt),
                    ))

    def _scan_expr(self, node: ast.expr | None) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._scan_call(sub)
            elif isinstance(sub, ast.BinOp) or \
                    (isinstance(sub, ast.Compare)
                     and len(sub.comparators) == 1):
                self._eval(sub)  # records broadcast conflicts as a side effect
            elif isinstance(sub, ast.Subscript) and \
                    isinstance(sub.ctx, ast.Load):
                self._scan_access(sub)

    def _scan_call(self, node: ast.Call) -> None:
        np_name = self._np_name(node.func)
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        self._eval(node)  # record shape events for dot/concatenate/...

        # S402: builtin dtype names (float is implicit, int is
        # platform-width) at astype/constructor sites.
        dtype_expr = kwargs.get("dtype")
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "astype" and node.args:
            dtype_expr = node.args[0]
        kind = self._builtin_dtype_kind(dtype_expr)
        if kind is not None:
            self.out.dtype_sites.append((
                node.lineno, node.col_offset, f"builtin-{kind}",
                _safe_unparse(node),
            ))
        # S402: a 32-bit integer array feeding an overflow-prone reduction.
        if np_name in _OVERFLOW_REDUCERS and node.args:
            arg_fact = self._eval(node.args[0])
            if arg_fact is not None and arg_fact.dtype == "int32":
                self.out.dtype_sites.append((
                    node.lineno, node.col_offset, "int32-reduce",
                    _safe_unparse(node),
                ))

        # S403: in-place mutation through out= or an in-place method.
        out_expr = kwargs.get("out")
        if out_expr is not None:
            hit = self._mutation_owner(self._eval(out_expr))
            if hit is not None:
                self.out.mutation_sites.append((
                    node.lineno, node.col_offset,
                    _safe_unparse(out_expr, limit=30), hit[0], hit[1],
                    _safe_unparse(node),
                ))
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _INPLACE_METHODS:
            hit = self._mutation_owner(self._eval(node.func.value))
            if hit is not None:
                self.out.mutation_sites.append((
                    node.lineno, node.col_offset,
                    _safe_unparse(node.func.value, limit=30), hit[0],
                    hit[1], _safe_unparse(node),
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
        if not self._loop_stack:
            return
        base = self._eval(node.value)
        if base is None or not base.is_array():
            return
        loop_dim, loop_kind, stored = self._loop_stack[-1]
        all_stored = set().union(*(s for _, _, s in self._loop_stack))
        entries = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        index_names = set()
        fancy = False
        column_slice = False
        for position, entry in enumerate(entries):
            if self._is_newaxis(entry):
                continue
            if isinstance(entry, ast.Slice):
                if position > 0 and entry.lower is None and \
                        entry.upper is None:
                    # arr[..., :] keeps trailing dims; arr[:, j] below.
                    continue
                continue
            index_fact = self._eval(entry)
            if index_fact is not None and index_fact.is_array():
                fancy = True
            index_names |= _names_in(entry)
            if position > 0 and not isinstance(entry, ast.Slice) and \
                    len(entries) > 1 and \
                    isinstance(entries[0], ast.Slice):
                column_slice = True
        if fancy and not (index_names & all_stored):
            self.out.access_sites.append((
                node.lineno, node.col_offset, "invariant-gather",
                _safe_unparse(node),
            ))
        elif column_slice and (loop_dim == "samples" or
                               loop_kind == "while"):
            self.out.access_sites.append((
                node.lineno, node.col_offset, "strided-column",
                _safe_unparse(node),
            ))
        elif base.contiguous is False and \
                (loop_dim == "samples" or loop_kind == "while"):
            self.out.access_sites.append((
                node.lineno, node.col_offset, "non-contiguous",
                _safe_unparse(node),
            ))


def build_shape_model(index: FlowIndex) -> ShapeModel:
    """Extract array facts for every function in the shared flow index."""
    model = ShapeModel(index=index)
    alias_cache: dict = {}
    for key, info in index.functions.items():
        module = index.modules.get(info.module_name)
        if module is None:
            continue
        if info.module_name not in alias_cache:
            alias_cache[info.module_name] = _numpy_aliases(
                index, info.module_name)
        interpreter = _FunctionInterpreter(
            info, module.relpath, alias_cache[info.module_name])
        model.functions[key] = interpreter.run()
    return model
