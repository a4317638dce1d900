"""Core of the lint engine shared by every analyzer.

The engine is deliberately small: it walks a set of Python files, parses
each into an AST exactly once, extracts ``# repro: disable=CODE`` comments
and hands the parsed modules to a list of pluggable :class:`Rule` objects
through :func:`run_rules`, the one rule loop every analyzer runs.
Rules come in two flavours:

* **module rules** inspect one file at a time (:meth:`Rule.check_module`);
* **project rules** see every file together (:meth:`Rule.check_project`),
  which is what lets R002 resolve the estimator class hierarchy across
  modules and R003 diff every vendor module against ``table1_spec``.

The engine also holds what every analyzer reads the same way: each
module's import table (:attr:`ModuleInfo.bindings`, relative imports
resolved), its numpy aliases, :func:`dotted_path`, :func:`safe_unparse`,
:func:`names_in`/:func:`store_names`, and :class:`FunctionRule`, the
base of the rules that report inside a model's functions.

Suppression comments have the form::

    something_risky()  # repro: disable=R001 -- why this is safe

and may also stand alone on the line directly above the violating
statement.  A suppression without a ``-- reason`` (or naming an unknown
rule code) is itself reported as an ``R000`` violation, so every surviving
suppression in the tree carries a human-readable justification.  A code
is known when any analyzer of :mod:`repro.tools.check` owns it.  ``R000``
violations cannot be suppressed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ENGINE_CODE",
    "Binding",
    "FunctionRule",
    "LintResult",
    "ModuleInfo",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "Suppression",
    "Violation",
    "apply_suppressions",
    "dotted_path",
    "import_bindings",
    "iter_python_files",
    "load_module",
    "names_in",
    "numpy_attr",
    "parse_suppressions",
    "register_rule",
    "resolve_relative",
    "run_rules",
    "safe_unparse",
    "store_names",
    "suppression_violations",
]

#: Code reserved for engine-level problems (parse failures, malformed or
#: unknown suppressions).  Never suppressible.
ENGINE_CODE = "R000"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*disable=(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Violation:
    """One rule finding at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    suppressed: bool = False
    reason: str | None = None

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: disable=...`` comment."""

    line: int
    codes: tuple
    reason: str
    standalone: bool  # the whole line is the comment

    @property
    def applies_to_line(self) -> int:
        """The source line this suppression covers."""
        return self.line + 1 if self.standalone else self.line


@dataclass(frozen=True)
class Binding:
    """One import binding: local name -> (module, symbol) origin."""

    module: str
    symbol: str | None  # None when the binding is the module object itself

    @property
    def dotted(self) -> str:
        """Dotted path of the bound object (``module.symbol``)."""
        return self.module if self.symbol is None \
            else f"{self.module}.{self.symbol}"


def resolve_relative(package: str, module: str | None, level: int) -> str | None:
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


def import_bindings(module: "ModuleInfo", nodes: Iterable | None = None) -> dict:
    """Map local name -> :class:`Binding` for every import in ``module``.

    ``nodes``: its nodes (or imports) in ``ast.walk`` order;
    :attr:`ModuleInfo.nodes` if omitted.  Relative imports resolve
    against the module's package.  Read the table through
    :attr:`ModuleInfo.bindings`, which builds it once per module.
    """
    bindings: dict[str, Binding] = {}
    for node in module.nodes if nodes is None else nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                bindings[local] = Binding(module=target, symbol=None)
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(module.package, node.module, node.level)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = Binding(module=target, symbol=alias.name)
    return bindings


#: Nodes whose bodies are scopes of their own (see ``ModuleInfo.walk``).
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

#: The parser's shared singletons (``ast.Load()``, ``ast.Add()``, ...):
#: no analyzer reads them as nodes, so the node lists leave them out.
_SHARED_LEAVES = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
                  ast.cmpop)


def _walk_nodes(node: ast.AST) -> list:
    """``ast.walk(node)`` without the shared leaves."""
    return [child for child in ast.walk(node)
            if not isinstance(child, _SHARED_LEAVES)]


@dataclass
class ModuleInfo:
    """One parsed source file.

    The derived facts (:attr:`dotted_name`, :attr:`nodes` and the scope
    node lists behind :meth:`walk` and :meth:`own_nodes`, :attr:`bindings`,
    :attr:`numpy_aliases`) are computed on first use and kept on the
    instance; treat them as read-only.
    """

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    suppressions: list = field(default_factory=list)

    @cached_property
    def dotted_name(self) -> str:
        """Best-effort dotted module name derived from the path."""
        parts = list(Path(self.relpath).with_suffix("").parts)
        # Drop everything up to a src/ layout root, so absolute and
        # relative paths map to the same import path.
        if "src" in parts:
            parts = parts[parts.index("src") + 1:]
        elif "repro" in parts:
            parts = parts[parts.index("repro"):]
        while parts and parts[0] == ".":
            parts.pop(0)
        if parts and parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    @property
    def package(self) -> str:
        """The package relative imports in this module resolve against."""
        if self.path.name == "__init__.py":
            return self.dotted_name
        return self.dotted_name.rpartition(".")[0]

    @cached_property
    def nodes(self) -> list:
        """Every node of :attr:`tree` but the shared leaves, in
        ``ast.walk`` order, walked once."""
        return self._scoped_walk[0]

    @cached_property
    def _scoped_walk(self) -> tuple:
        """``(nodes, own, inner)`` from one breadth-first walk of the tree.

        ``own[id(scope)]`` holds the nodes of one scope (the module, a
        def, a class or a lambda) in ``ast.walk`` order: the scope node
        and every node under it that no nested scope node encloses.  A
        nested scope node heads its own list, so each node is in exactly
        one.  ``inner[id(scope)]`` lists the scope nodes directly nested
        in ``scope``.
        """
        nodes: list = []
        own: dict = {}
        inner: dict = {}
        # Level by level, each node beside the list of its scope.
        level, scopes = [self.tree], [None]
        while level:
            below, below_scopes = [], []
            for node, scope in zip(level, scopes):
                nodes.append(node)
                if scope is None or isinstance(node, _SCOPE_TYPES):
                    if scope is not None:
                        inner.setdefault(id(scope[0]), []).append(node)
                    scope = own[id(node)] = [node]
                else:
                    scope.append(node)
                for child in ast.iter_child_nodes(node):
                    if not isinstance(child, _SHARED_LEAVES):
                        below.append(child)
                        below_scopes.append(scope)
            level, scopes = below, below_scopes
        return nodes, own, inner

    def walk(self, scope: ast.AST) -> list:
        """The nodes of ``ast.walk(scope)`` in that order, without the
        shared leaves; walked at most once per check for :attr:`tree` or
        a def, class or lambda of it.

        A scope with no nested scope is its own node list; one with
        nested scopes keeps its walk on first use (nested scopes are
        rare, so these lists stay small).  Either list is shared by
        every caller: read it, never change it.  Any other node is
        walked afresh.
        """
        _, own, inner = self._scoped_walk
        nodes = own.get(id(scope))
        if nodes is None:
            return _walk_nodes(scope)
        if id(scope) not in inner:
            return nodes
        walked = self._nested_walks.get(id(scope))
        if walked is None:
            walked = self._nested_walks[id(scope)] = _walk_nodes(scope)
        return walked

    def own_nodes(self, scope: ast.AST) -> list:
        """The own nodes of one scope, in ``ast.walk`` order: ``scope``
        and every node under it that no nested def, class or lambda
        encloses, without the shared leaves.

        For :attr:`tree` or a def, class or lambda of it this is the
        shared list (read it, never change it); a scope node of another
        tree is walked afresh.
        """
        _, own, _ = self._scoped_walk
        nodes = own.get(id(scope))
        if nodes is not None:
            return nodes
        nodes, level = [], [scope]
        while level:
            nodes.extend(level)
            level = [child for node in level
                     for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _SHARED_LEAVES + _SCOPE_TYPES)]
        return nodes

    def scopes_in(self, scope: ast.AST) -> list:
        """``scope`` and every def, class and lambda nested in it, each
        before the scopes it holds; from the shared lists when ``scope``
        is :attr:`tree` or a scope of it, else walked afresh."""
        _, own, inner = self._scoped_walk
        if id(scope) not in own:
            return [scope, *(node for node in _walk_nodes(scope)
                             if node is not scope
                             and isinstance(node, _SCOPE_TYPES))]
        out, stack = [], [scope]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(inner.get(id(current), ())))
        return out

    @cached_property
    def _nested_walks(self) -> dict:
        """``id(scope) -> walk(scope)`` for scopes holding nested scopes,
        filled by :meth:`walk`."""
        return {}

    def iter_subtree(self, node: ast.AST) -> Iterator[ast.AST]:
        """The nodes of :meth:`walk` ``(node)`` in no fixed order.

        For :attr:`tree` or a def, class or lambda of it they come from
        the shared scope lists, so nothing is walked.  Only order-free
        consumers (sets, ``any``) may use this.
        """
        _, own, inner = self._scoped_walk
        if id(node) not in own:
            yield from _walk_nodes(node)
            return
        stack = [node]
        while stack:
            current = stack.pop()
            yield from own[id(current)]
            stack.extend(inner.get(id(current), ()))

    @cached_property
    def bindings(self) -> dict:
        """The module's import table: local name -> :class:`Binding`.

        :func:`repro.tools.flow.graph.build_index` fills it from its own
        walk, so an indexed module never walks its tree again for it.
        """
        return import_bindings(self)

    @cached_property
    def numpy_aliases(self) -> frozenset:
        """Local names bound to the numpy module, plus ``np`` and ``numpy``."""
        return frozenset({"np", "numpy"} | {
            local for local, binding in self.bindings.items()
            if binding.symbol is None and (
                binding.module == "numpy"
                or binding.module.startswith("numpy."))
        })

    def top_level_assign(self, name: str) -> ast.expr | None:
        """The value expression bound to ``name`` at module top level."""
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return node.value
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Name)
                        and node.target.id == name):
                    return node.value
        return None


@dataclass
class Project:
    """Every module of one lint run, plus cross-module indexes.

    The class table and its subclass closures are derived on first use
    and kept until :attr:`modules` changes; treat them as read-only.
    """

    modules: list = field(default_factory=list)
    _facts: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _facts_modules: tuple = field(default=(), init=False, repr=False,
                                  compare=False)

    def _derived(self, key, build):
        """``build()``'s result, computed once per list of modules."""
        modules = tuple(self.modules)
        if modules != self._facts_modules:
            self._facts, self._facts_modules = {}, modules
        if key not in self._facts:
            self._facts[key] = build()
        return self._facts[key]

    def module_by_dotted_name(self, dotted: str) -> ModuleInfo | None:
        """Look up a module by import path (``repro.learn.base``), if linted."""
        for module in self.modules:
            if module.dotted_name == dotted:
                return module
        return None

    def class_defs(self) -> dict:
        """Map class name -> list of (module, ClassDef, base-name tuple).

        Bases are reduced to the final attribute component
        (``repro.learn.base.BaseEstimator`` -> ``BaseEstimator``) so the
        hierarchy can be chased by name across modules without imports.
        """
        return self._derived("class_defs", self._build_class_defs)

    def _build_class_defs(self) -> dict:
        index: dict[str, list] = {}
        for module in self.modules:
            for node in module.nodes:
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = tuple(
                    base_name
                    for base in node.bases
                    if (base_name := _final_name(base)) is not None
                )
                index.setdefault(node.name, []).append((module, node, bases))
        return index

    def subclasses_of(self, roots: Iterable[str]) -> frozenset:
        """Names of classes transitively deriving from ``roots`` by name."""
        roots = frozenset(roots)
        return self._derived(("subclasses_of", roots),
                             lambda: self._build_subclasses(roots))

    def _build_subclasses(self, roots: frozenset) -> frozenset:
        index = self.class_defs()
        known = set(roots)
        changed = True
        while changed:
            changed = False
            for name, entries in index.items():
                if name in known:
                    continue
                for _, _, bases in entries:
                    if any(base in known for base in bases):
                        known.add(name)
                        changed = True
                        break
        return frozenset(known - roots)


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


def numpy_attr(func: ast.expr, aliases) -> str | None:
    """``np.foo`` -> ``"foo"`` when the root name is one of ``aliases``."""
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases):
        return func.attr
    return None


def safe_unparse(node: ast.AST, limit: int | None = None) -> str:
    """Source text of ``node``, cut to ``limit`` characters with ``…``."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse never fails on ast.parse output
        text = "<expr>"
    if limit is None or len(text) <= limit:
        return text
    return text[: limit - 1] + "…"


def names_in(node: ast.AST) -> set:
    """Every plain name read or written anywhere under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def store_names(node: ast.AST) -> set:
    """Every plain name stored anywhere under ``node`` (incl. loop targets)."""
    return {
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _final_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class Rule:
    """Base class for lint rules; register subclasses with ``@register_rule``."""

    code: str = ENGINE_CODE
    name: str = "abstract"
    description: str = ""

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Violation]:
        """Yield violations found in one module (override for per-file rules)."""
        return ()

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Yield violations needing a whole-project view (override if used)."""
        return ()


class FunctionRule(Rule):
    """Base class for rules reporting inside a model's functions.

    The race, perf and shape rules read one model per run; each finding
    sits in one function record (anything with ``key`` and ``relpath``)
    and names its qualname.  ``model`` is the injected model (the race
    rules keep theirs on ``con``).
    """

    def __init__(self, model=None):
        self.model = model

    def _violation(self, fn, line: int, col: int, message: str) -> Violation:
        return Violation(
            code=self.code,
            message=f"{message} [{fn.key[1] or '<module>'}]",
            path=fn.relpath,
            line=line,
            col=col,
        )

    def _functions(self) -> Iterator:
        """The model's function records in analyzed modules, by key."""
        analyzed = {m.dotted_name for m in self.model.index.project.modules}
        for key in sorted(self.model.functions):
            if key[0] in analyzed:
                yield self.model.functions[key]


#: Registry of rule code -> rule class, filled by ``@register_rule``.
RULE_REGISTRY: dict[str, type] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code!r}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def parse_suppressions(source: str) -> list:
    """Extract every ``# repro: disable=...`` comment from ``source``.

    Real comments are found with :mod:`tokenize` so that suppression
    syntax quoted inside string literals (docs, tests, messages) is never
    mistaken for a live suppression; a source without ``disable=`` is skipped.
    """
    suppressions = []
    if "disable=" not in source:
        return suppressions
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        lineno, col = token.start
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
            if code.strip()
        )
        suppressions.append(Suppression(
            line=lineno,
            codes=codes,
            reason=(match.group("reason") or "").strip(),
            standalone=not token.line[:col].strip(),
        ))
    return suppressions


def iter_python_files(paths: Sequence) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, sorted, without duplicates."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_module(path: Path, root: Path | None = None) -> tuple:
    """Parse one file; returns ``(ModuleInfo | None, [parse violations])``."""
    relpath = str(path)
    if root is not None:
        try:
            relpath = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            relpath = str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        violation = Violation(
            code=ENGINE_CODE,
            message=f"could not parse file: {exc.msg}",
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
        )
        return None, [violation]
    module = ModuleInfo(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )
    return module, []


def suppression_violations(module: ModuleInfo, known_codes: set) -> Iterator[Violation]:
    """Engine-level findings about a module's suppression comments.

    A suppression without a reason, targeting :data:`ENGINE_CODE`, or
    naming a code outside ``known_codes`` is itself a violation.
    """
    for suppression in module.suppressions:
        if not suppression.reason:
            yield Violation(
                code=ENGINE_CODE,
                message=(
                    "suppression comment needs a justification: "
                    "'# repro: disable=CODE -- reason'"
                ),
                path=module.relpath,
                line=suppression.line,
            )
        for code in suppression.codes:
            if code == ENGINE_CODE:
                yield Violation(
                    code=ENGINE_CODE,
                    message=f"{ENGINE_CODE} findings cannot be suppressed",
                    path=module.relpath,
                    line=suppression.line,
                )
            elif code not in known_codes:
                yield Violation(
                    code=ENGINE_CODE,
                    message=f"suppression names unknown rule code {code!r}",
                    path=module.relpath,
                    line=suppression.line,
                )


def apply_suppressions(violations: list, modules: dict) -> list:
    """Mark violations covered by a justified suppression comment."""
    resolved = []
    for violation in violations:
        module = modules.get(violation.path)
        if module is None or violation.code == ENGINE_CODE:
            resolved.append(violation)
            continue
        covering = None
        for suppression in module.suppressions:
            if (violation.code in suppression.codes
                    and suppression.applies_to_line == violation.line
                    and suppression.reason):
                covering = suppression
                break
        if covering is None:
            resolved.append(violation)
        else:
            resolved.append(replace(
                violation, suppressed=True, reason=covering.reason,
            ))
    return resolved


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: list = field(default_factory=list)
    n_files: int = 0

    @property
    def unsuppressed(self) -> list:
        return [v for v in self.violations if not v.suppressed]

    @property
    def suppressed(self) -> list:
        return [v for v in self.violations if v.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.unsuppressed else 0


def run_rules(
    project: Project,
    rules: Sequence,
    parse_violations: Sequence,
    n_files: int,
    known_codes: set,
) -> LintResult:
    """Run ``rules`` over a parsed ``project``: the one rule loop.

    Suppression findings and module rules run per module, project rules
    once; justified suppressions are then applied and the findings
    sorted by location.  ``known_codes`` is the suppression vocabulary
    (every analyzer's rule codes plus :data:`ENGINE_CODE`).
    """
    violations: list[Violation] = list(parse_violations)
    for module in project.modules:
        violations.extend(suppression_violations(module, known_codes))
        for rule in rules:
            violations.extend(rule.check_module(module, project))
    for rule in rules:
        violations.extend(rule.check_project(project))

    modules_by_path = {m.relpath: m for m in project.modules}
    violations = apply_suppressions(violations, modules_by_path)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return LintResult(violations=violations, n_files=n_files)
