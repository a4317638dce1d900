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
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ENGINE_CODE",
    "LintResult",
    "ModuleInfo",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "Suppression",
    "Violation",
    "apply_suppressions",
    "iter_python_files",
    "load_module",
    "parse_suppressions",
    "register_rule",
    "run_rules",
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


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    suppressions: list = field(default_factory=list)

    @property
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
    """Every module of one lint run, plus cross-module indexes."""

    modules: list = field(default_factory=list)

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
        index: dict[str, list] = {}
        for module in self.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = tuple(
                    base_name
                    for base in node.bases
                    if (base_name := _final_name(base)) is not None
                )
                index.setdefault(node.name, []).append((module, node, bases))
        return index

    def subclasses_of(self, roots: Iterable[str]) -> set:
        """Names of classes transitively deriving from ``roots`` by name."""
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
        return known - set(roots)


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
    mistaken for a live suppression.
    """
    suppressions = []
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
