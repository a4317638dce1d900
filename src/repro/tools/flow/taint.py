"""Interprocedural leakage-taint analysis backing F102 (the flow analyzer).

The paper's protocol trains on the training fold only; a single
``fit(X_test)`` anywhere in the pipeline silently inflates every number
downstream (MLBench calls this the dominant failure of MLaaS
comparisons).  This module tracks values *derived from held-out data*:

* **sources** — the test outputs of ``train_test_split`` tuple unpacking,
  the second element of ``KFold``/``StratifiedKFold`` ``.split()``
  iteration, and ``.X_test`` / ``.y_test`` attribute loads;
* **propagation** — assignments, indexing, arithmetic, tuple packing,
  and a small passthrough set (``np.asarray`` and friends).  Unresolved
  calls *drop* taint, so the analysis errs toward silence;
* **sinks** — ``.fit`` / ``.fit_transform`` / ``.partial_fit`` calls.

Cross-function flows are handled with per-function summaries (which
parameters leak into a sink, which flow to the return value) iterated to
a fixpoint over the project call graph, so a helper that fits whatever it
is handed is flagged *at the call site that hands it test data*.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.tools.flow.graph import CallSite, FlowIndex, FunctionInfo, dotted_path

__all__ = [
    "SINK_METHODS",
    "TEST_ATTRS",
    "TEST_LABEL",
    "TaintFinding",
    "TaintSummary",
    "analyze_project_taint",
]

#: The label meaning "derived from a held-out test split".
TEST_LABEL = "<held-out>"

#: Attribute names that load held-out data off a split object.
TEST_ATTRS = frozenset({"X_test", "y_test"})

#: Method names that train on their arguments.
SINK_METHODS = frozenset({"fit", "fit_transform", "partial_fit"})

#: Calls that return their (array) argument semantically unchanged.
_PASSTHROUGH = frozenset({
    "asarray", "ascontiguousarray", "array", "copy", "astype", "ravel",
    "reshape", "hstack", "vstack", "concatenate", "column_stack", "tuple",
    "list", "sorted",
})

_MAX_ROUNDS = 20


@dataclass
class TaintSummary:
    """What one function does with taint on its parameters."""

    leaky_params: frozenset = frozenset()   # params that reach a sink
    return_params: frozenset = frozenset()  # params that flow to the return
    returns_test: bool = False              # body's own source flows to return


@dataclass(frozen=True)
class TaintFinding:
    """One place held-out data reaches training."""

    module_name: str
    lineno: int
    col: int
    message: str


@dataclass
class _Scope:
    """One analyzable scope: a function body or a module body."""

    module_name: str
    root: ast.AST
    params: tuple = ()
    key: tuple = ("", "")


def _scope_nodes(root: ast.AST):
    """Walk a scope without descending into nested function/class bodies."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _ScopeAnalysis:
    """Flow-insensitive taint fixpoint over one scope."""

    def __init__(self, index: FlowIndex, scope: _Scope, summaries: dict):
        self.index = index
        self.scope = scope
        self.summaries = summaries
        self.env: dict[str, frozenset] = {
            param: frozenset({param}) for param in scope.params
        }
        self.returns: set = set()
        self.leaks: list = []  # (labels, node, message)
        self.call_sites = {
            id(site.node): site
            for site in index.calls.get(scope.key, [])
        }

    # -- expression taint ------------------------------------------------

    def eval(self, node: ast.expr | None) -> frozenset:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value)
            if node.attr in TEST_ATTRS:
                return base | {TEST_LABEL}
            return base
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: frozenset = frozenset()
            for element in node.elts:
                out |= self.eval(element)
            return out
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out = frozenset()
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, ast.IfExp):
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.NamedExpr):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            out = frozenset()
            for generator in node.generators:
                out |= self.eval(generator.iter)
            return out
        if isinstance(node, ast.Slice):
            return self.eval(node.lower) | self.eval(node.upper)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        return frozenset()

    def _eval_call(self, node: ast.Call) -> frozenset:
        path = dotted_path(node.func)
        final = path[-1] if path else None
        if final == "train_test_split":
            # Coarse: the packed result contains held-out parts; the
            # 4-tuple unpacking in _handle_assign is the precise case.
            return frozenset({TEST_LABEL})
        site = self.call_sites.get(id(node))
        if site is not None and site.target is not None:
            return self._eval_project_call(node, site)
        if final in _PASSTHROUGH:
            out: frozenset = frozenset()
            for arg in node.args:
                out |= self.eval(arg)
            for keyword in node.keywords:
                out |= self.eval(keyword.value)
            return out
        return frozenset()

    def _eval_project_call(self, node: ast.Call, site: CallSite) -> frozenset:
        target = self.index.functions.get(site.target)
        summary = self.summaries.get(site.target)
        if target is None or summary is None:
            return frozenset()
        out: frozenset = frozenset()
        if summary.returns_test:
            out |= {TEST_LABEL}
        for param, labels in self._bind_args(target, node):
            if param in summary.return_params:
                out |= labels
        return out

    def _bind_args(self, target: FunctionInfo, node: ast.Call):
        """Yield ``(param_name, labels)`` for each bindable argument."""
        positional = target.param_names()
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            if position < len(positional):
                yield positional[position], self.eval(arg)
        valid = set(target.all_param_names())
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg in valid:
                yield keyword.arg, self.eval(keyword.value)

    # -- statement handling ----------------------------------------------

    def _assign(self, name: str, labels: frozenset) -> bool:
        current = self.env.get(name, frozenset())
        merged = current | labels
        if merged != current:
            self.env[name] = merged
            return True
        return False

    def _bind_target(self, target: ast.expr, labels: frozenset) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            changed |= self._assign(target.id, labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                changed |= self._bind_target(element, labels)
        elif isinstance(target, ast.Starred):
            changed |= self._bind_target(target.value, labels)
        return changed

    def _handle_assign(self, node: ast.stmt) -> bool:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        else:
            return False
        if value is None:
            return False
        changed = False
        split_call = (
            isinstance(value, ast.Call)
            and (dotted_path(value.func) or ("",))[-1] == "train_test_split"
        )
        for target in targets:
            if (split_call and isinstance(target, (ast.Tuple, ast.List))
                    and len(target.elts) == 4):
                # X_train, X_test, y_train, y_test = train_test_split(...)
                base = frozenset()
                for arg in value.args:
                    base |= self.eval(arg)
                for position, element in enumerate(target.elts):
                    labels = base | ({TEST_LABEL} if position in (1, 3)
                                     else frozenset())
                    changed |= self._bind_target(element, labels)
            else:
                changed |= self._bind_target(target, self.eval(value))
        return changed

    def _handle_for(self, node: ast.For) -> bool:
        iter_call = node.iter
        if (isinstance(iter_call, ast.Call)
                and isinstance(iter_call.func, ast.Attribute)
                and iter_call.func.attr == "split"
                and isinstance(node.target, (ast.Tuple, ast.List))
                and len(node.target.elts) == 2):
            # for train_idx, test_idx in splitter.split(X, y): ...
            changed = self._bind_target(node.target.elts[0], frozenset())
            changed |= self._bind_target(
                node.target.elts[1], frozenset({TEST_LABEL})
            )
            return changed
        return self._bind_target(node.target, self.eval(node.iter))

    # -- driver ----------------------------------------------------------

    def run(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for node in _scope_nodes(self.scope.root):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    changed |= self._handle_assign(node)
                elif isinstance(node, ast.For):
                    changed |= self._handle_for(node)
            if not changed:
                break
        for node in _scope_nodes(self.scope.root):
            if isinstance(node, ast.Return):
                self.returns |= self.eval(node.value)
            elif isinstance(node, ast.Call):
                self._check_sink(node)

    def _check_sink(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in SINK_METHODS):
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                labels = self.eval(arg)
                if labels:
                    self.leaks.append((
                        labels, node,
                        f"'.{node.func.attr}()' trains on it",
                    ))
            return
        site = self.call_sites.get(id(node))
        if site is None or site.target is None:
            return
        summary = self.summaries.get(site.target)
        target = self.index.functions.get(site.target)
        if summary is None or target is None:
            return
        for param, labels in self._bind_args(target, node):
            if param in summary.leaky_params and labels:
                callee = f"{site.target[0]}:{target.qualname}"
                self.leaks.append((
                    labels, node,
                    f"'{callee}' fits on its parameter {param!r}",
                ))

    def summary(self) -> TaintSummary:
        params = set(self.scope.params)
        leaky = set()
        for labels, _, _ in self.leaks:
            leaky |= labels & params
        return TaintSummary(
            leaky_params=frozenset(leaky),
            return_params=frozenset(self.returns & params),
            returns_test=TEST_LABEL in self.returns,
        )

    def findings(self) -> list:
        out = []
        for labels, node, how in self.leaks:
            if TEST_LABEL not in labels:
                continue
            out.append(TaintFinding(
                module_name=self.scope.module_name,
                lineno=node.lineno,
                col=node.col_offset,
                message=(
                    "held-out test data reaches training here: value is "
                    f"derived from a test split and {how}; fit only on "
                    "training folds (paper §3.2 protocol)"
                ),
            ))
        return out


@dataclass
class _ProjectTaint:
    summaries: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)


def _scopes(index: FlowIndex):
    for key, info in index.functions.items():
        yield _Scope(
            module_name=info.module_name,
            root=info.node,
            params=tuple(info.all_param_names(skip_self=True)),
            key=key,
        )
    for name, module in index.modules.items():
        yield _Scope(module_name=name, root=module.tree, key=(name, ""))


def analyze_project_taint(index: FlowIndex) -> list:
    """Fixpoint the function summaries, then collect project findings."""
    state = _ProjectTaint()
    function_scopes = [s for s in _scopes(index) if s.key in index.functions]
    for _ in range(_MAX_ROUNDS):
        changed = False
        for scope in function_scopes:
            analysis = _ScopeAnalysis(index, scope, state.summaries)
            analysis.run()
            summary = analysis.summary()
            if state.summaries.get(scope.key) != summary:
                state.summaries[scope.key] = summary
                changed = True
        if not changed:
            break
    seen = set()
    for scope in _scopes(index):
        analysis = _ScopeAnalysis(index, scope, state.summaries)
        analysis.run()
        for finding in analysis.findings():
            key = (finding.module_name, finding.lineno, finding.message)
            if key not in seen:
                seen.add(key)
                state.findings.append(finding)
    return state.findings
