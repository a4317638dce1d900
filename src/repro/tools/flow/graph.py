"""Whole-project indexes for the flow analyzer (and the others).

Every module is parsed exactly once (by the shared lint engine); this
module turns the parsed forest into the three cross-module structures the
F-rules query:

* a **symbol table** — every module-level binding (function, class,
  constant, import) with re-export chains resolvable across modules;
* an **import graph** — project-internal module-to-module edges with the
  AST node of each import statement, for layering and cycle checks;
* an approximate **call graph** — call sites resolved to in-project
  functions (including ``Class(...)`` → ``Class.__init__`` and
  ``self.method()``), which is what lets the taint and seed-flow rules
  reason across call boundaries.

The resolution is deliberately *approximate*: anything dynamic
(``getattr``, dict dispatch, callables passed as values) resolves to
nothing rather than to a guess, so rules built on top err toward silence,
not false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.tools.lint.engine import ModuleInfo, Project

__all__ = [
    "CallSite",
    "FlowIndex",
    "FunctionInfo",
    "ImportEdge",
    "SymbolDef",
    "build_index",
    "dotted_path",
    "import_bindings",
]


def dotted_path(node: ast.expr) -> tuple | None:
    """``a.b.c`` -> ``("a", "b", "c")``; ``None`` for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@dataclass(frozen=True)
class _Binding:
    """One import binding: local name -> (module, symbol) origin."""

    module: str
    symbol: str | None  # None when the binding is the module object itself


def _resolve_relative(package: str, module: str | None, level: int) -> str | None:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if level == 0:
        return module
    parts = package.split(".") if package else []
    if level > len(parts):
        return None
    base = parts[: len(parts) - (level - 1)]
    if module:
        base.extend(module.split("."))
    return ".".join(base) if base else None


def import_bindings(module: ModuleInfo) -> dict:
    """Map local name -> :class:`_Binding` for every import in ``module``."""
    package = module.dotted_name
    if not module.path.name == "__init__.py":
        package = package.rpartition(".")[0]
    bindings: dict[str, _Binding] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                bindings[local] = _Binding(module=target, symbol=None)
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(package, node.module, node.level)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = _Binding(module=target, symbol=alias.name)
    return bindings


@dataclass(frozen=True)
class SymbolDef:
    """One module-level binding in the project."""

    module_name: str
    name: str
    kind: str  # "function" | "class" | "constant" | "import"
    lineno: int
    col: int = 0

    @property
    def key(self) -> tuple:
        return (self.module_name, self.name)


@dataclass(frozen=True)
class ImportEdge:
    """One project-internal import: ``source`` module imports ``target``.

    ``deferred`` marks imports inside a function body: they do not run at
    import time, so they participate in layering checks but not in
    import-cycle detection (a deferred import is the sanctioned way to
    break a would-be cycle).
    """

    source: str
    target: str
    lineno: int
    col: int = 0
    deferred: bool = False


@dataclass
class FunctionInfo:
    """One function or method, addressable as ``module:qualname``."""

    module_name: str
    qualname: str  # "fn" or "Class.method"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: str | None = None

    @property
    def key(self) -> tuple:
        return (self.module_name, self.qualname)

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    def param_names(self, skip_self: bool = True) -> list:
        """Positional-capable parameter names, in order."""
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        if skip_self and self.class_name is not None and names[:1] == ["self"]:
            names = names[1:]
        return names

    def all_param_names(self, skip_self: bool = True) -> list:
        """Every parameter name, including keyword-only ones."""
        args = self.node.args
        names = self.param_names(skip_self=skip_self)
        return names + [a.arg for a in args.kwonlyargs]


@dataclass(frozen=True)
class CallSite:
    """One call expression resolved (or not) to an in-project function."""

    caller: tuple  # FunctionInfo.key of the enclosing scope (module body: (mod, ""))
    node: ast.Call
    target: tuple | None  # FunctionInfo.key of the callee, if resolved
    target_class: str | None = None  # set when the call constructs a class


@dataclass
class FlowIndex:
    """Shared cross-module indexes built once per analyzed project."""

    project: Project
    context_modules: list = field(default_factory=list)
    modules: dict = field(default_factory=dict)      # dotted name -> ModuleInfo
    bindings: dict = field(default_factory=dict)     # dotted name -> {local: _Binding}
    symbols: dict = field(default_factory=dict)      # (module, name) -> SymbolDef
    functions: dict = field(default_factory=dict)    # (module, qualname) -> FunctionInfo
    classes: dict = field(default_factory=dict)      # (module, class) -> ast.ClassDef
    import_edges: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)        # caller key -> [CallSite]

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve_symbol(self, module_name: str, name: str, depth: int = 0):
        """Chase ``name`` in ``module_name`` through re-export chains.

        Returns the defining :class:`SymbolDef` (kind != "import"), or
        ``None`` when the name leaves the project or cannot be resolved.
        """
        if depth > 16:
            return None
        local = self.symbols.get((module_name, name))
        if local is not None and local.kind != "import":
            return local
        binding = self.bindings.get(module_name, {}).get(name)
        if binding is None:
            return None
        if binding.symbol is None:
            return None  # bound a module object, not a symbol
        target = binding.module
        if target in self.modules:
            return self.resolve_symbol(target, binding.symbol, depth + 1)
        # ``from repro.pkg import submodule`` — the "symbol" is a module.
        sub = f"{target}.{binding.symbol}"
        if sub in self.modules:
            return None
        return None

    def resolve_function(self, module_name: str, name: str):
        """Resolve a called name to a :class:`FunctionInfo` (or class init).

        Returns ``(function_info, class_name)`` where ``class_name`` is
        set when the name resolved to a class (the function is then its
        ``__init__``, possibly inherited); ``(None, class_name)`` for a
        class with no resolvable ``__init__``; ``(None, None)`` otherwise.
        """
        symbol = self.resolve_symbol(module_name, name)
        if symbol is None:
            return None, None
        if symbol.kind == "function":
            return self.functions.get((symbol.module_name, symbol.name)), None
        if symbol.kind == "class":
            init = self.class_init(symbol.module_name, symbol.name)
            return init, symbol.name
        return None, None

    def class_init(self, module_name: str, class_name: str, depth: int = 0):
        """The ``__init__`` of a class, chasing base classes by name."""
        if depth > 8:
            return None
        init = self.functions.get((module_name, f"{class_name}.__init__"))
        if init is not None:
            return init
        cls = self.classes.get((module_name, class_name))
        if cls is None:
            return None
        for base in cls.bases:
            path = dotted_path(base)
            if path is None:
                continue
            base_symbol = self.resolve_symbol(module_name, path[0])
            if base_symbol is None or base_symbol.kind != "class":
                continue
            name = base_symbol.name if len(path) == 1 else path[-1]
            found = self.class_init(base_symbol.module_name, name, depth + 1)
            if found is not None:
                return found
        return None

    def module_of(self, module_name: str) -> ModuleInfo | None:
        """The parsed module for a dotted name, if it was analyzed."""
        return self.modules.get(module_name)

    def project_target(self, binding: _Binding) -> str | None:
        """Dotted project module a binding points into, if any."""
        target = binding.module
        if binding.symbol is not None:
            sub = f"{target}.{binding.symbol}"
            if sub in self.modules:
                return sub
        if target in self.modules:
            return target
        # ``import repro.learn.base`` binds "repro": chase the prefix.
        while target and target not in self.modules:
            target = target.rpartition(".")[0]
        return target or None


def _collect_symbols(index: FlowIndex, module: ModuleInfo) -> None:
    name = module.dotted_name
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.symbols[(name, node.name)] = SymbolDef(
                name, node.name, "function", node.lineno, node.col_offset,
            )
        elif isinstance(node, ast.ClassDef):
            index.symbols[(name, node.name)] = SymbolDef(
                name, node.name, "class", node.lineno, node.col_offset,
            )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for target_name in _target_names(target):
                    index.symbols[(name, target_name)] = SymbolDef(
                        name, target_name, "constant",
                        node.lineno, node.col_offset,
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            index.symbols[(name, node.target.id)] = SymbolDef(
                name, node.target.id, "constant", node.lineno, node.col_offset,
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name.split(".")[0] \
                    if isinstance(node, ast.Import) else (alias.asname or alias.name)
                index.symbols[(name, local)] = SymbolDef(
                    name, local, "import", node.lineno, node.col_offset,
                )


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _collect_functions(index: FlowIndex, module: ModuleInfo) -> None:
    name = module.dotted_name
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[(name, node.name)] = FunctionInfo(name, node.name, node)
        elif isinstance(node, ast.ClassDef):
            index.classes[(name, node.name)] = node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{item.name}"
                    index.functions[(name, qualname)] = FunctionInfo(
                        name, qualname, item, class_name=node.name,
                    )


def _collect_import_edges(index: FlowIndex, module: ModuleInfo) -> None:
    source = module.dotted_name
    package = source if module.path.name == "__init__.py" \
        else source.rpartition(".")[0]
    in_function = {
        child
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.walk(node)
        if child is not node
    }
    for node in ast.walk(module.tree):
        deferred = node in in_function
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = _project_module_prefix(index, alias.name)
                if target is not None:
                    index.import_edges.append(ImportEdge(
                        source, target, node.lineno, node.col_offset,
                        deferred=deferred,
                    ))
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(package, node.module, node.level)
            if base is None:
                continue
            for alias in node.names:
                candidate = f"{base}.{alias.name}" if alias.name != "*" else base
                target = (_project_module_prefix(index, candidate)
                          or _project_module_prefix(index, base))
                if target is not None:
                    index.import_edges.append(ImportEdge(
                        source, target, node.lineno, node.col_offset,
                        deferred=deferred,
                    ))


def _project_module_prefix(index: FlowIndex, dotted: str) -> str | None:
    """Longest prefix of ``dotted`` that is a project module, if any."""
    while dotted:
        if dotted in index.modules:
            return dotted
        dotted = dotted.rpartition(".")[0]
    return None


def _collect_calls(index: FlowIndex, module: ModuleInfo) -> None:
    module_name = module.dotted_name
    for info in list(index.functions.values()):
        if info.module_name != module_name:
            continue
        sites = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                sites.append(_resolve_call(index, module_name, info, node))
        index.calls[info.key] = sites
    # Module body (everything outside function/class defs) as pseudo-scope.
    body_calls = []
    inside = {
        child
        for top in module.tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for child in ast.walk(top)
    }
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and node not in inside:
            body_calls.append(_resolve_call(index, module_name, None, node))
    index.calls[(module_name, "")] = body_calls


def _resolve_call(
    index: FlowIndex,
    module_name: str,
    caller: FunctionInfo | None,
    node: ast.Call,
) -> CallSite:
    caller_key = caller.key if caller is not None else (module_name, "")
    path = dotted_path(node.func)
    if path is None:
        return CallSite(caller_key, node, None)
    target: FunctionInfo | None = None
    target_class: str | None = None
    if len(path) == 1:
        target, target_class = index.resolve_function(module_name, path[0])
    elif path[0] == "self" and caller is not None and caller.class_name:
        if len(path) == 2:
            target = index.functions.get(
                (module_name, f"{caller.class_name}.{path[1]}")
            )
    else:
        binding = index.bindings.get(module_name, {}).get(path[0])
        if binding is not None:
            origin = index.project_target(binding)
            if origin is not None and binding.symbol is None:
                # path[0] is a module alias: resolve attr chain inside it.
                remaining = list(path[1:])
                current = origin
                while len(remaining) > 1 and f"{current}.{remaining[0]}" in index.modules:
                    current = f"{current}.{remaining[0]}"
                    remaining.pop(0)
                if len(remaining) == 1:
                    target, target_class = index.resolve_function(
                        current, remaining[0]
                    )
    return CallSite(caller_key, node, target.key if target else None,
                    target_class=target_class)


def build_index(project: Project, context_modules: Sequence = ()) -> FlowIndex:
    """Build every shared index for one flow run (single pass per table)."""
    index = FlowIndex(project=project, context_modules=list(context_modules))
    for module in project.modules:
        index.modules[module.dotted_name] = module
    for module in project.modules:
        index.bindings[module.dotted_name] = import_bindings(module)
        _collect_symbols(index, module)
        _collect_functions(index, module)
    for module in project.modules:
        _collect_import_edges(index, module)
        _collect_calls(index, module)
    return index
