"""The cross-module rule families of the flow analyzer.

=====  ====================  ==================================================
Code   Name                  Invariant protected
=====  ====================  ==================================================
F101   layering              The dependency DAG in ``layers_spec``: no module
                             imports a layer above its own, and the
                             import-time module graph is acyclic.
F102   leakage-taint         Values derived from held-out test folds never
                             reach ``fit``/``fit_transform`` through any
                             (interprocedural) path.
F103   seed-flow             A caller holding a ``random_state``/``seed``
                             must thread it into every in-project callee
                             that accepts ``random_state`` (R001 across
                             call boundaries).
F104   dead-code             Module-level symbols must be reachable from
                             ``__all__``, the CLI, benchmarks, examples,
                             or tests.
F105   api-drift             The exported API surface (names, signatures,
                             estimator params) matches ``api_spec.json``;
                             intentional changes go through
                             ``repro check --update-spec flow``.
=====  ====================  ==================================================

Unlike the single-file R-rules, every F-rule needs the shared
:class:`~repro.tools.flow.graph.FlowIndex`; the runner builds it once and
binds it onto each rule before the check pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.flow import apispec
from repro.tools.flow.graph import FlowIndex, import_bindings
from repro.tools.flow.layers_spec import LAYERS, layer_of
from repro.tools.flow.taint import analyze_project_taint
from repro.tools.lint.engine import ModuleInfo, Project, Rule, Violation

__all__ = [
    "ApiDriftRule",
    "DeadCodeRule",
    "FlowRule",
    "LayeringRule",
    "LeakageTaintRule",
    "SeedFlowRule",
    "default_flow_rules",
]

#: Decorators that do not publish a symbol anywhere (so a decorated def
#: can still be dead).  Any *other* decorator is assumed to register its
#: target somewhere (``@register_rule`` and friends), which roots it.
_INERT_DECORATORS = frozenset({
    "abstractmethod", "cached_property", "classmethod", "contextmanager",
    "dataclass", "lru_cache", "overload", "property", "staticmethod",
    "total_ordering", "wraps",
})


class FlowRule(Rule):
    """Base class for flow rules; the runner injects the shared index."""

    def __init__(self, index: FlowIndex | None = None):
        self.index = index

    def _module(self, module_name: str) -> ModuleInfo | None:
        return self.index.modules.get(module_name)

    def _violation(self, module_name: str, lineno: int, col: int,
                   message: str) -> Violation | None:
        module = self._module(module_name)
        if module is None:
            return None
        return Violation(
            code=self.code, message=message, path=module.relpath,
            line=lineno, col=col,
        )


# ---------------------------------------------------------------------------
# F101 — layering
# ---------------------------------------------------------------------------


class LayeringRule(FlowRule):
    """Enforce the dependency DAG declared in ``layers_spec``."""

    code = "F101"
    name = "layering"
    description = (
        "modules may import only their own or lower layers of the "
        "layers_spec DAG; the import-time module graph must be acyclic"
    )

    def __init__(self, index: FlowIndex | None = None, layers=None):
        super().__init__(index)
        self.layers = layers if layers is not None else LAYERS

    def _layer_of(self, module_name: str) -> int | None:
        if self.layers is LAYERS:
            return layer_of(module_name)
        best = None
        for position, layer in enumerate(self.layers):
            for package in layer.packages:
                if (module_name == package
                        or module_name.startswith(package + ".")):
                    if best is None or len(package) > best[0]:
                        best = (len(package), position)
        return None if best is None else best[1]

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Report upward imports and import-time cycles."""
        yield from self._check_direction()
        yield from self._check_cycles()

    def _check_direction(self) -> Iterator[Violation]:
        for edge in self.index.import_edges:
            source_layer = self._layer_of(edge.source)
            target_layer = self._layer_of(edge.target)
            if source_layer is None or target_layer is None:
                continue
            if target_layer > source_layer:
                violation = self._violation(
                    edge.source, edge.lineno, edge.col,
                    f"upward import: {edge.source} (layer "
                    f"'{self.layers[source_layer].name}') imports "
                    f"{edge.target} (layer "
                    f"'{self.layers[target_layer].name}'); dependencies "
                    "must point down the DAG in "
                    "repro.tools.flow.layers_spec",
                )
                if violation is not None:
                    yield violation

    def _check_cycles(self) -> Iterator[Violation]:
        graph: dict[str, set] = {}
        anchors: dict[tuple, tuple] = {}
        for edge in self.index.import_edges:
            if edge.deferred or edge.source == edge.target:
                continue
            graph.setdefault(edge.source, set()).add(edge.target)
            graph.setdefault(edge.target, set())
            anchors.setdefault((edge.source, edge.target),
                               (edge.lineno, edge.col))
        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            cycle = sorted(component)
            first = cycle[0]
            lineno, col = 1, 0
            for target in graph.get(first, ()):
                if target in component:
                    lineno, col = anchors.get((first, target), (1, 0))
                    break
            violation = self._violation(
                first, lineno, col,
                "import cycle at import time: "
                + " <-> ".join(cycle)
                + "; break it by moving one import into the function "
                "that needs it",
            )
            if violation is not None:
                yield violation


def _strongly_connected(graph: dict) -> list:
    """Tarjan's SCC algorithm, iterative, deterministic order."""
    index_counter = [0]
    stack: list[str] = []
    on_stack: set = set()
    indexes: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    result: list = []

    for start in sorted(graph):
        if start in indexes:
            continue
        work = [(start, iter(sorted(graph.get(start, ()))))]
        indexes[start] = lowlinks[start] = index_counter[0]
        index_counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indexes:
                    indexes[successor] = lowlinks[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(graph.get(successor, ()))))
                    )
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indexes[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indexes[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result


# ---------------------------------------------------------------------------
# F102 — leakage taint
# ---------------------------------------------------------------------------


class LeakageTaintRule(FlowRule):
    """Held-out test data must never reach training (see ``taint``)."""

    code = "F102"
    name = "leakage-taint"
    description = (
        "values derived from test folds (train_test_split/KFold outputs, "
        "X_test/y_test) must not reach fit/fit_transform through any "
        "interprocedural path"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Report every place held-out data reaches a training sink."""
        for finding in analyze_project_taint(self.index):
            violation = self._violation(
                finding.module_name, finding.lineno, finding.col,
                finding.message,
            )
            if violation is not None:
                yield violation


# ---------------------------------------------------------------------------
# F103 — seed flow
# ---------------------------------------------------------------------------

_SEED_NAMES = frozenset({"random_state", "seed"})


class SeedFlowRule(FlowRule):
    """Callers holding a seed must thread it into stochastic callees."""

    code = "F103"
    name = "seed-flow"
    description = (
        "a function with a random_state/seed parameter must pass "
        "random_state to every in-project callee that accepts one"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Report call sites that drop the caller's seed."""
        for caller_key, sites in sorted(self.index.calls.items()):
            caller = self.index.functions.get(caller_key)
            if caller is None:  # module body: no caller seed to thread
                continue
            caller_params = set(caller.all_param_names(skip_self=False))
            held = sorted(_SEED_NAMES & caller_params)
            if not held:
                continue
            for site in sites:
                yield from self._check_site(caller, held, site)

    def _check_site(self, caller, held, site) -> Iterator[Violation]:
        if site.target is None:
            return
        callee = self.index.functions.get(site.target)
        if callee is None:
            return
        callee_params = callee.all_param_names()
        if "random_state" not in callee_params:
            return
        if self._binds_random_state(site.node, callee):
            return
        what = (f"class {site.target_class}" if site.target_class
                else f"{site.target[0]}:{callee.qualname}")
        violation = self._violation(
            caller.module_name, site.node.lineno, site.node.col_offset,
            f"stochastic callee {what} accepts random_state but this call "
            f"does not thread the caller's {'/'.join(held)}; an unthreaded "
            "seed breaks the experiment's determinism chain (extends R001 "
            "across calls)",
        )
        if violation is not None:
            yield violation

    @staticmethod
    def _binds_random_state(node: ast.Call, callee) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "random_state":
                return True
            if keyword.arg is None:  # **kwargs: not statically checkable
                return True
        positional = callee.param_names()
        if "random_state" in positional:
            return len(node.args) > positional.index("random_state")
        return False


# ---------------------------------------------------------------------------
# F104 — dead code
# ---------------------------------------------------------------------------


class DeadCodeRule(FlowRule):
    """Module-level symbols must be reachable from the public surface."""

    code = "F104"
    name = "dead-code"
    description = (
        "module-level functions/classes/constants unreachable from "
        "__all__, the CLI, benchmarks, examples, or tests are dead"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Report symbols the liveness worklist never reaches."""
        alive = self._roots()
        queue = list(alive)
        while queue:
            key = queue.pop()
            for referenced in self._symbol_refs(key):
                if referenced not in alive:
                    alive.add(referenced)
                    queue.append(referenced)
        for key in sorted(self.index.symbols):
            symbol = self.index.symbols[key]
            if symbol.kind == "import" or key in alive:
                continue
            if symbol.name.startswith("__"):
                continue
            violation = self._violation(
                symbol.module_name, symbol.lineno, symbol.col,
                f"dead code: {symbol.kind} {symbol.name!r} is unreachable "
                "from __all__, the CLI, benchmarks, examples, or tests; "
                "delete it or wire it in",
            )
            if violation is not None:
                yield violation

    # -- roots ----------------------------------------------------------

    def _roots(self) -> set:
        roots: set = set()
        for module_name, module in self.index.modules.items():
            for export in apispec._literal_all(module.tree) or ():
                resolved = self.index.resolve_symbol(module_name, export)
                if resolved is not None:
                    roots.add(resolved.key)
            roots.update(self._module_body_refs(module))
            roots.update(self._decorated_defs(module))
        for context in self.index.context_modules:
            roots.update(self._context_refs(context))
        return roots

    def _module_body_refs(self, module: ModuleInfo) -> Iterator[tuple]:
        """References executed at import time (outside any def)."""
        module_name = module.dotted_name
        for top in module.tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                nodes: list = list(top.decorator_list)
                if isinstance(top, ast.ClassDef):
                    nodes.extend(top.bases)
            elif isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                # Only the value side: the assignment's own target Name
                # must not root the symbol it defines.
                nodes = [top.value] if top.value is not None else []
            else:
                nodes = [top]
            for node in nodes:
                yield from self._expr_refs(module_name, node)

    def _decorated_defs(self, module: ModuleInfo) -> Iterator[tuple]:
        """Defs with a side-effectful decorator register themselves."""
        for top in module.tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                continue
            for decorator in top.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) \
                    else decorator
                final = target.attr if isinstance(target, ast.Attribute) \
                    else getattr(target, "id", None)
                if final is not None and final not in _INERT_DECORATORS:
                    yield (module.dotted_name, top.name)
                    break

    def _context_refs(self, context: ModuleInfo) -> Iterator[tuple]:
        """Symbols a benchmark/example/test module reaches into."""
        bindings = import_bindings(context)
        for binding in bindings.values():
            if binding.symbol is None:
                continue
            target = binding.module
            if target in self.index.modules:
                resolved = self.index.resolve_symbol(target, binding.symbol)
                if resolved is not None:
                    yield resolved.key
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _attribute_chain(node)
            if chain is None:
                continue
            base, attrs = chain
            binding = bindings.get(base)
            if binding is None or binding.symbol is not None:
                continue
            yield from self._chase_module_attrs(binding.module, attrs)

    def _chase_module_attrs(self, module_name: str, attrs: tuple) -> Iterator[tuple]:
        current = module_name
        for position, attr in enumerate(attrs):
            nested = f"{current}.{attr}"
            if nested in self.index.modules:
                current = nested
                continue
            if current in self.index.modules:
                resolved = self.index.resolve_symbol(current, attr)
                if resolved is not None:
                    yield resolved.key
            return

    # -- reference edges -------------------------------------------------

    def _symbol_refs(self, key: tuple) -> Iterator[tuple]:
        module_name, name = key
        module = self.index.modules.get(module_name)
        symbol = self.index.symbols.get(key)
        if module is None or symbol is None:
            return
        node = self._def_node(module, symbol)
        if node is None:
            return
        yield from self._expr_refs(module_name, node, skip_name=name)

    @staticmethod
    def _def_node(module: ModuleInfo, symbol) -> ast.AST | None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name == symbol.name:
                    return node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id == symbol.name):
                        return node
        return None

    def _expr_refs(self, module_name: str, node: ast.AST,
                   skip_name: str | None = None) -> Iterator[tuple]:
        bindings = self.index.bindings.get(module_name, {})
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                if child.id == skip_name:
                    continue
                resolved = self.index.resolve_symbol(module_name, child.id)
                if resolved is not None:
                    yield resolved.key
            elif isinstance(child, ast.Attribute):
                chain = _attribute_chain(child)
                if chain is None:
                    continue
                base, attrs = chain
                binding = bindings.get(base)
                if binding is not None and binding.symbol is None:
                    yield from self._chase_module_attrs(binding.module, attrs)


def _attribute_chain(node: ast.Attribute) -> tuple | None:
    """``a.b.c`` -> ("a", ("b", "c")); None for computed bases."""
    attrs: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        return current.id, tuple(reversed(attrs))
    return None


# ---------------------------------------------------------------------------
# F105 — API drift
# ---------------------------------------------------------------------------


class ApiDriftRule(FlowRule):
    """The exported API surface must match the checked-in spec."""

    code = "F105"
    name = "api-drift"
    description = (
        "exported names, signatures, and estimator params must match "
        "api_spec.json; use 'repro flow --update-spec' for intentional "
        "changes"
    )

    def __init__(self, index: FlowIndex | None = None, spec_path=None):
        super().__init__(index)
        self.spec_path = spec_path or apispec.DEFAULT_SPEC_PATH

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Diff the tree's API surface against the checked-in spec."""
        current = apispec.extract_surface(self.index)
        spec = apispec.load_spec(self.spec_path)
        if spec is None:
            if current["modules"]:
                anchor = min(
                    current["modules"],
                    key=lambda name: self.index.modules[name].relpath,
                )
                violation = self._violation(
                    anchor, 1, 0,
                    f"no API spec at {self.spec_path}; run "
                    "'repro flow --update-spec' to record the surface",
                )
                if violation is not None:
                    yield violation
            return
        for module_name, symbol, message in apispec.diff_surfaces(spec, current):
            if module_name is None or module_name not in self.index.modules:
                # The module vanished: anchor at the spec file itself.
                yield Violation(
                    code=self.code, message=message,
                    path=str(self.spec_path), line=1,
                )
                continue
            lineno, col = self._anchor(module_name, symbol)
            violation = self._violation(module_name, lineno, col, message)
            if violation is not None:
                yield violation

    def _anchor(self, module_name: str, symbol: str | None) -> tuple:
        if symbol is not None:
            local = self.index.symbols.get((module_name, symbol))
            if local is not None:
                return local.lineno, local.col
        module = self.index.modules[module_name]
        for node in module.tree.body:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "__all__"):
                return node.lineno, node.col_offset
        return 1, 0


def default_flow_rules(index: FlowIndex | None = None, spec_path=None) -> list:
    """One instance of every flow rule, in code order."""
    return [
        LayeringRule(index),
        LeakageTaintRule(index),
        SeedFlowRule(index),
        DeadCodeRule(index),
        ApiDriftRule(index, spec_path=spec_path),
    ]
