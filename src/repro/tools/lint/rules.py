"""The repo-specific rule families of the lint analyzer.

=====  ====================  ==================================================
Code   Name                  Invariant protected (paper section)
=====  ====================  ==================================================
R001   determinism           §3.2 seed chain: no unseeded ``np.random`` /
                             stdlib ``random`` use; RNGs must be threaded
                             through ``random_state`` / ``check_random_state``.
R002   estimator-contract    The fit/predict protocol every sweep relies on:
                             ``__init__`` assigns params verbatim, ``fit``
                             validates input and returns ``self``, fitted
                             attributes end in ``_``.
R003   table1-conformance    Table 1: each vendor module's declared
                             ``ControlSurface`` must match the ground truth in
                             ``repro.platforms.table1_spec``.
R004   exception-hygiene     No bare ``except``; raised errors derive from
                             ``ReproError`` or the stdlib; broad handlers that
                             swallow must justify themselves.
R005   export-sync           Every public module declares ``__all__`` and it
                             agrees with the module's top-level definitions.
=====  ====================  ==================================================
"""

from __future__ import annotations

import ast
import builtins
import importlib.util
import sys
from pathlib import Path
from typing import Iterable, Iterator

from repro.exceptions import ReproError
from repro.tools.lint.engine import (
    ModuleInfo,
    Project,
    Rule,
    Violation,
    register_rule,
)

__all__ = [
    "DeterminismRule",
    "EstimatorContractRule",
    "Table1ConformanceRule",
    "ExceptionHygieneRule",
    "ExportSyncRule",
    "default_rules",
]


def _dotted_path(node: ast.expr) -> tuple | None:
    """``a.b.c`` -> ("a", "b", "c"); None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _import_bindings(tree: ast.Module) -> dict:
    """Map local name -> dotted origin for every import in the module."""
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                bindings[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = f"{node.module}.{alias.name}"
    return bindings


# ---------------------------------------------------------------------------
# R001 — determinism
# ---------------------------------------------------------------------------

#: Legacy/global numpy RNG entry points whose output no seed chain controls.
_LEGACY_NP_RANDOM = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel", "laplace",
    "lognormal", "multinomial", "multivariate_normal", "normal",
    "permutation", "poisson", "rand", "randint", "randn", "random",
    "random_integers", "random_sample", "ranf", "sample", "seed",
    "set_state", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "uniform",
    "RandomState",
})


@register_rule
class DeterminismRule(Rule):
    """No RNG may escape the experiment's seed chain (paper §3.2)."""

    code = "R001"
    name = "determinism"
    description = (
        "forbid unseeded np.random / stdlib random; RNGs must be threaded "
        "through random_state / check_random_state"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        """Scan one module for unseeded RNG constructions."""
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _dotted_path(node.func)
            if path is None:
                continue
            origin = bindings.get(path[0])
            if origin is not None:
                resolved = (*origin.split("."), *path[1:])
            else:
                resolved = path
            message = self._diagnose(resolved, node)
            if message is not None:
                yield Violation(
                    code=self.code, message=message,
                    path=module.relpath, line=node.lineno,
                    col=node.col_offset,
                )

    @staticmethod
    def _diagnose(resolved: tuple, call: ast.Call) -> str | None:
        if len(resolved) >= 2 and resolved[0] == "numpy":
            if resolved[1] != "random":
                return None
            attr = resolved[2] if len(resolved) > 2 else None
            if attr in _LEGACY_NP_RANDOM:
                return (
                    f"legacy global RNG 'np.random.{attr}' escapes the seed "
                    "chain; use a Generator from check_random_state(seed)"
                )
            if attr == "default_rng" and not call.args and not call.keywords:
                return (
                    "np.random.default_rng() without a seed is "
                    "irreproducible; pass an explicit seed or thread the "
                    "caller's random_state"
                )
            return None
        if resolved[0] == "random" and len(resolved) >= 2:
            return (
                f"stdlib 'random.{resolved[1]}' is unseeded global state; "
                "use numpy Generators threaded via random_state"
            )
        return None


# ---------------------------------------------------------------------------
# R002 — estimator contract
# ---------------------------------------------------------------------------

#: Input-validation helpers whose presence satisfies the fit() check.
_VALIDATION_HELPERS = frozenset({
    "check_X_y", "check_array", "column_or_1d", "check_binary_labels",
})


@register_rule
class EstimatorContractRule(Rule):
    """Every BaseEstimator subclass must honor the shared fit protocol."""

    code = "R002"
    name = "estimator-contract"
    description = (
        "BaseEstimator subclasses: __init__ assigns params verbatim, fit "
        "validates input and returns self, fitted attributes end in '_'"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Check every BaseEstimator subclass against the sklearn contract."""
        estimator_names = project.subclasses_of({"BaseEstimator"})
        index = project.class_defs()
        for name in sorted(estimator_names):
            for module, node, _ in index[name]:
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo, cls: ast.ClassDef) -> Iterator[Violation]:
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                yield from self._check_init(module, cls, item)
            elif item.name == "fit":
                yield from self._check_fit(module, cls, item)
            if item.name not in ("__init__", "set_params"):
                yield from self._check_fitted_attributes(module, cls, item)

    def _check_init(
        self, module: ModuleInfo, cls: ast.ClassDef, init: ast.FunctionDef
    ) -> Iterator[Violation]:
        args = init.args
        if args.vararg is not None or args.kwarg is not None:
            yield self._violation(
                module, init,
                f"{cls.name}.__init__ must declare every parameter "
                "explicitly (no *args/**kwargs) so get_params/clone work",
            )
        params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg != "self"
        ]
        assigned: set[str] = set()
        body = init.body
        if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]  # docstring
        for stmt in body:
            target_name = self._verbatim_assignment(stmt)
            if target_name is None or target_name not in params:
                yield self._violation(
                    module, stmt,
                    f"{cls.name}.__init__ may only assign constructor "
                    "parameters verbatim (self.x = x); move logic to fit()",
                )
            else:
                assigned.add(target_name)
        for param in params:
            if param not in assigned:
                yield self._violation(
                    module, init,
                    f"{cls.name}.__init__ never stores parameter "
                    f"{param!r}; get_params() would raise AttributeError",
                )

    @staticmethod
    def _verbatim_assignment(stmt: ast.stmt) -> str | None:
        if isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        else:
            return None
        if len(targets) != 1 or value is None:
            return None
        target = targets[0]
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return None
        if not (isinstance(value, ast.Name) and value.id == target.attr):
            return None
        return target.attr

    def _check_fit(
        self, module: ModuleInfo, cls: ast.ClassDef, fit: ast.FunctionDef
    ) -> Iterator[Violation]:
        returns = [
            node for node in ast.walk(fit) if isinstance(node, ast.Return)
        ]
        if not returns:
            yield self._violation(
                module, fit, f"{cls.name}.fit must end with 'return self'",
            )
        for ret in returns:
            if not (isinstance(ret.value, ast.Name) and ret.value.id == "self"):
                yield self._violation(
                    module, ret,
                    f"every return in {cls.name}.fit must be 'return self' "
                    "so calls chain (est.fit(X, y).predict(X))",
                )
        if not self._fit_validates(fit):
            yield self._violation(
                module, fit,
                f"{cls.name}.fit must validate its input through "
                "check_X_y/check_array (or delegate to a sub-estimator's "
                "fit)",
            )

    @staticmethod
    def _fit_validates(fit: ast.FunctionDef) -> bool:
        for node in ast.walk(fit):
            if not isinstance(node, ast.Call):
                continue
            path = _dotted_path(node.func)
            if path is None:
                continue
            if path[-1] in _VALIDATION_HELPERS:
                return True
            # Delegation: calling any .fit()/.fit_transform() hands the
            # data to a sub-estimator that performs its own validation.
            if len(path) >= 2 and path[-1] in ("fit", "fit_transform"):
                return True
        return False

    def _check_fitted_attributes(
        self, module: ModuleInfo, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for attr in self._self_attributes(target):
                    if attr.startswith("_") or attr.endswith("_"):
                        continue
                    yield self._violation(
                        module, node,
                        f"{cls.name}.{method.name} sets 'self.{attr}': "
                        "state learned outside __init__ must be a fitted "
                        "attribute ending in '_' (constructor parameters "
                        "are read-only after __init__)",
                    )

    @staticmethod
    def _self_attributes(target: ast.expr) -> Iterator[str]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from EstimatorContractRule._self_attributes(element)
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            yield target.attr

    def _violation(self, module: ModuleInfo, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=self.code, message=message, path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


# ---------------------------------------------------------------------------
# R003 — Table 1 conformance
# ---------------------------------------------------------------------------


class _ExtractionError(ReproError):
    """A vendor control surface could not be statically resolved."""

    def __init__(self, message: str, node: ast.AST | None = None):
        super().__init__(message)
        self.node = node


#: ``table1_spec.py`` of this installation (R003's ground truth).
_TABLE1_SPEC_PATH = (Path(__file__).resolve().parents[2]
                     / "platforms" / "table1_spec.py")


def _table1_spec() -> dict:
    """``TABLE1_SPEC`` without importing the ``repro.platforms`` package.

    That package import loads every simulator, ``repro.learn`` and
    numpy, while the spec module needs only :mod:`dataclasses`, so it is
    executed from its file, once per process, unless it is already
    imported.
    """
    for name in ("repro.platforms.table1_spec", "_repro_table1_spec"):
        if name in sys.modules:
            return sys.modules[name].TABLE1_SPEC
    spec = importlib.util.spec_from_file_location("_repro_table1_spec",
                                                  _TABLE1_SPEC_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.TABLE1_SPEC


@register_rule
class Table1ConformanceRule(Rule):
    """Vendor ``ControlSurface`` declarations must match ``table1_spec``."""

    code = "R003"
    name = "table1-conformance"
    description = (
        "statically extract each MLaaSPlatform subclass's ControlSurface "
        "and diff it against repro.platforms.table1_spec"
    )

    def __init__(self, spec: dict | None = None):
        self._spec = spec

    def _load_spec(self) -> dict:
        if self._spec is None:
            self._spec = _table1_spec()
        return self._spec

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Diff each vendor module's declared surface against Table 1."""
        extracted: dict[str, tuple] = {}
        spec_module = None
        any_platform = False
        for module in project.modules:
            if module.relpath.endswith("table1_spec.py"):
                spec_module = module
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = {b.attr if isinstance(b, ast.Attribute) else
                         getattr(b, "id", None) for b in node.bases}
                if "MLaaSPlatform" not in bases:
                    continue
                any_platform = True
                try:
                    surface = _extract_surface(module, node, project)
                except _ExtractionError as exc:
                    anchor = exc.node if exc.node is not None else node
                    yield Violation(
                        code=self.code,
                        message=f"cannot statically resolve {node.name}'s "
                                f"control surface: {exc}",
                        path=module.relpath, line=anchor.lineno,
                        col=anchor.col_offset,
                    )
                    continue
                extracted[surface["name"]] = (module, node, surface)
        if not any_platform:
            return
        spec = self._load_spec()
        for name, (module, node, surface) in sorted(extracted.items()):
            entry = spec.get(name)
            if entry is None:
                yield Violation(
                    code=self.code,
                    message=f"platform {name!r} has no entry in "
                            "table1_spec.TABLE1_SPEC",
                    path=module.relpath, line=node.lineno,
                )
                continue
            yield from self._diff(module, node, surface, entry)
        if spec_module is not None:
            for name in sorted(set(spec) - set(extracted)):
                yield Violation(
                    code=self.code,
                    message=f"table1_spec declares platform {name!r} but no "
                            "vendor module defines it",
                    path=spec_module.relpath, line=1,
                )

    def _diff(self, module, cls, surface, entry) -> Iterator[Violation]:
        def emit(message, node=None):
            anchor = node if node is not None else cls
            return Violation(
                code=self.code, message=message, path=module.relpath,
                line=getattr(anchor, "lineno", cls.lineno),
                col=getattr(anchor, "col_offset", 0),
            )

        name = surface["name"]
        if surface["complexity"] != entry.complexity:
            yield emit(
                f"{name}: complexity {surface['complexity']} != Table 1 "
                f"value {entry.complexity}", surface["complexity_node"],
            )
        if tuple(surface["feature_selectors"]) != tuple(entry.feature_selectors):
            yield emit(
                f"{name}: feature selectors {list(surface['feature_selectors'])} "
                f"!= Table 1 list {list(entry.feature_selectors)}",
                surface["controls_node"],
            )
        if surface["supports_parameter_tuning"] != ("PARA" in entry.dimensions):
            yield emit(
                f"{name}: supports_parameter_tuning="
                f"{surface['supports_parameter_tuning']} contradicts Table 1 "
                f"dimensions {sorted(entry.dimensions)}",
                surface["controls_node"],
            )
        spec_clfs = {c.abbr: c for c in entry.classifiers}
        got_abbrs = [c["abbr"] for c in surface["classifiers"]]
        want_abbrs = [c.abbr for c in entry.classifiers]
        if got_abbrs != want_abbrs:
            yield emit(
                f"{name}: classifiers {got_abbrs} != Table 1 list "
                f"{want_abbrs}", surface["controls_node"],
            )
        for clf in surface["classifiers"]:
            spec_clf = spec_clfs.get(clf["abbr"])
            if spec_clf is None:
                continue  # already reported by the abbr-list diff
            if clf["label"] != spec_clf.label:
                yield emit(
                    f"{name}/{clf['abbr']}: label {clf['label']!r} != "
                    f"Table 1 label {spec_clf.label!r}", clf["node"],
                )
            spec_params = {p.name: p for p in spec_clf.parameters}
            got_names = [p["name"] for p in clf["parameters"]]
            want_names = [p.name for p in spec_clf.parameters]
            if got_names != want_names:
                unexpected = [n for n in got_names if n not in spec_params]
                anchor = clf["node"]
                for param in clf["parameters"]:
                    if param["name"] in unexpected:
                        anchor = param["node"]
                        break
                yield emit(
                    f"{name}/{clf['abbr']}: parameter names {got_names} != "
                    f"Table 1 names {want_names}", anchor,
                )
            for param in clf["parameters"]:
                spec_param = spec_params.get(param["name"])
                if spec_param is None:
                    continue
                if param["default"] != spec_param.default:
                    yield emit(
                        f"{name}/{clf['abbr']}.{param['name']}: default "
                        f"{param['default']!r} != Table 1 default "
                        f"{spec_param.default!r}", param["node"],
                    )
                if tuple(param["values"]) != tuple(spec_param.values):
                    yield emit(
                        f"{name}/{clf['abbr']}.{param['name']}: value grid "
                        f"{list(param['values'])} != Table 1 grid "
                        f"{list(spec_param.values)}", param["node"],
                    )


def _extract_surface(module: ModuleInfo, cls: ast.ClassDef, project: Project) -> dict:
    name = complexity = controls = None
    name_node = complexity_node = controls_node = None
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "name":
            name, name_node = _resolve(stmt.value, module, project), stmt.value
        elif target.id == "complexity":
            complexity, complexity_node = (
                _resolve(stmt.value, module, project), stmt.value,
            )
        elif target.id == "controls":
            controls, controls_node = (
                _resolve(stmt.value, module, project), stmt.value,
            )
    if not isinstance(name, str):
        raise _ExtractionError("missing class attribute 'name'", cls)
    if not isinstance(complexity, int):
        raise _ExtractionError("missing class attribute 'complexity'", cls)
    if not isinstance(controls, dict) or controls.get("__kind__") != "ControlSurface":
        raise _ExtractionError(
            "class attribute 'controls' must be a ControlSurface(...) call",
            controls_node or cls,
        )
    return {
        "name": name,
        "complexity": complexity,
        "complexity_node": complexity_node,
        "controls_node": controls_node,
        "feature_selectors": controls["feature_selectors"],
        "classifiers": controls["classifiers"],
        "supports_parameter_tuning": controls["supports_parameter_tuning"],
    }


def _resolve(node: ast.expr, module: ModuleInfo, project: Project, depth: int = 0):
    """Mini constant-folder over the vendor-module declaration idioms."""
    if depth > 12:
        raise _ExtractionError("resolution too deep", node)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(_resolve(e, module, project, depth + 1) for e in node.elts)
    if isinstance(node, ast.Dict):
        return {
            _resolve(k, module, project, depth + 1): None
            for k in node.keys if k is not None
        }
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_resolve(node.operand, module, project, depth + 1)
    if isinstance(node, ast.Name):
        return _resolve_name(node, module, project, depth)
    if isinstance(node, ast.Call):
        return _resolve_call(node, module, project, depth)
    raise _ExtractionError(
        f"unsupported expression {ast.dump(node)[:60]}", node,
    )


def _resolve_name(node: ast.Name, module: ModuleInfo, project: Project, depth: int):
    value = module.top_level_assign(node.id)
    if value is not None:
        return _resolve(value, module, project, depth + 1)
    imports = _import_bindings(module.tree)
    origin = imports.get(node.id)
    if origin is not None and "." in origin:
        origin_module, _, origin_name = origin.rpartition(".")
        source = project.module_by_dotted_name(origin_module)
        if source is not None:
            value = source.top_level_assign(origin_name)
            if value is not None:
                return _resolve(value, source, project, depth + 1)
    raise _ExtractionError(f"cannot resolve name {node.id!r}", node)


def _resolve_call(node: ast.Call, module: ModuleInfo, project: Project, depth: int):
    path = _dotted_path(node.func)
    func = path[-1] if path else None

    def arg(position: int, keyword: str, default=_ExtractionError):
        for kw in node.keywords:
            if kw.arg == keyword:
                return _resolve(kw.value, module, project, depth + 1), kw.value
        if position < len(node.args):
            value = node.args[position]
            return _resolve(value, module, project, depth + 1), value
        if default is _ExtractionError:
            raise _ExtractionError(f"{func} missing argument {keyword!r}", node)
        return default, node

    if func == "ParameterSpec":
        name, _ = arg(0, "name")
        default, _ = arg(1, "default")
        values, _ = arg(2, "values")
        return {"__kind__": "ParameterSpec", "name": name, "default": default,
                "values": values, "node": node}
    if func == "ClassifierOption":
        abbr, _ = arg(0, "abbr")
        label, _ = arg(1, "label")
        parameters, _ = arg(2, "parameters", default=())
        return {"__kind__": "ClassifierOption", "abbr": abbr, "label": label,
                "parameters": parameters, "node": node}
    if func == "ControlSurface":
        feature_selectors, _ = arg(0, "feature_selectors", default=())
        classifiers, _ = arg(1, "classifiers", default=())
        tuning, _ = arg(2, "supports_parameter_tuning", default=False)
        if isinstance(feature_selectors, dict):
            feature_selectors = tuple(feature_selectors)
        return {"__kind__": "ControlSurface",
                "feature_selectors": feature_selectors,
                "classifiers": classifiers,
                "supports_parameter_tuning": tuning}
    if func == "tuple" and len(node.args) == 1:
        value = _resolve(node.args[0], module, project, depth + 1)
        return tuple(value)
    if func == "sorted" and len(node.args) == 1:
        value = _resolve(node.args[0], module, project, depth + 1)
        return tuple(sorted(value))
    if func == "frozenset" and len(node.args) <= 1:
        value = _resolve(node.args[0], module, project, depth + 1) if node.args else ()
        return frozenset(value)
    raise _ExtractionError(f"unsupported call {func!r}", node)


# ---------------------------------------------------------------------------
# R004 — exception hygiene
# ---------------------------------------------------------------------------

_BUILTIN_EXCEPTIONS = frozenset(
    name for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)

#: Catch-alls whose silent swallowing must be justified.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


@register_rule
class ExceptionHygieneRule(Rule):
    """No bare excepts, no foreign hierarchies, no silent broad swallows."""

    code = "R004"
    name = "exception-hygiene"
    description = (
        "no bare 'except:'; raises derive from ReproError or the stdlib; "
        "'except Exception: pass/continue' requires a justified suppression"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        """Check raise/except sites across the project."""
        allowed = set(_BUILTIN_EXCEPTIONS)
        allowed |= project.subclasses_of({"ReproError"}) | {"ReproError"}
        for module in project.modules:
            imports = _import_bindings(module.tree)
            for local, origin in imports.items():
                if origin.startswith("repro.exceptions."):
                    allowed.add(local)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ExceptHandler):
                    yield from self._check_handler(module, node)
                elif isinstance(node, ast.Raise):
                    yield from self._check_raise(module, node, allowed)

    def _check_handler(self, module: ModuleInfo, handler: ast.ExceptHandler) -> Iterator[Violation]:
        if handler.type is None:
            yield Violation(
                code=self.code,
                message="bare 'except:' also swallows KeyboardInterrupt/"
                        "SystemExit; name the exceptions (ReproError for "
                        "library failures)",
                path=module.relpath, line=handler.lineno,
                col=handler.col_offset,
            )
            return
        caught = self._caught_names(handler.type)
        if not (caught & _BROAD_EXCEPTIONS):
            return
        if all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in handler.body):
            yield Violation(
                code=self.code,
                message="'except Exception' that silently drops the failure "
                        "hides broken configurations; narrow it to "
                        "ReproError, or count/log the failure, or suppress "
                        "with a reason",
                path=module.relpath, line=handler.lineno,
                col=handler.col_offset,
            )

    @staticmethod
    def _caught_names(node: ast.expr) -> set:
        names = set()
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        for element in elements:
            path = _dotted_path(element)
            if path:
                names.add(path[-1])
        return names

    def _check_raise(
        self, module: ModuleInfo, node: ast.Raise, allowed: set
    ) -> Iterator[Violation]:
        exc = node.exc
        if exc is None:
            return  # re-raise
        if isinstance(exc, ast.Call):
            target = exc.func
        else:
            target = exc
        path = _dotted_path(target)
        if path is None:
            return  # dynamic (e.g. type(exc)(...)): not statically checkable
        name = path[-1]
        if not isinstance(exc, ast.Call) and (not name[:1].isupper()):
            return  # 'raise err' — a caught exception variable
        if name not in allowed:
            yield Violation(
                code=self.code,
                message=f"raised exception {name!r} does not derive from "
                        "ReproError or a stdlib exception; extend the "
                        "hierarchy in repro.exceptions",
                path=module.relpath, line=node.lineno, col=node.col_offset,
            )


# ---------------------------------------------------------------------------
# R005 — export sync
# ---------------------------------------------------------------------------


@register_rule
class ExportSyncRule(Rule):
    """Public modules declare ``__all__`` consistent with their contents."""

    code = "R005"
    name = "export-sync"
    description = (
        "public modules declare a literal __all__; every listed name "
        "resolves, every public definition is listed, and package "
        "__init__ re-exports what it imports from the project"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        """Check one module's ``__all__`` against its top-level bindings."""
        basename = module.path.name
        if basename == "__main__.py":
            return
        if basename.startswith("_") and basename != "__init__.py":
            return
        exported, all_node = self._parse_all(module)
        if all_node is None:
            yield Violation(
                code=self.code,
                message="public module must declare __all__ (a literal "
                        "list/tuple of strings)",
                path=module.relpath, line=1,
            )
            return
        if exported is None:
            yield Violation(
                code=self.code,
                message="__all__ must be a literal list/tuple of string "
                        "constants so it is statically checkable",
                path=module.relpath, line=all_node.lineno,
                col=all_node.col_offset,
            )
            return
        seen: set[str] = set()
        for name in exported:
            if name in seen:
                yield Violation(
                    code=self.code,
                    message=f"__all__ lists {name!r} more than once",
                    path=module.relpath, line=all_node.lineno,
                )
            seen.add(name)
        bindings = self._top_level_bindings(module.tree)
        for name in exported:
            if name not in bindings:
                yield Violation(
                    code=self.code,
                    message=f"__all__ exports {name!r} but the module never "
                            "defines or imports it",
                    path=module.relpath, line=all_node.lineno,
                )
        yield from self._check_unexported(module, exported, all_node)
        if basename == "__init__.py":
            yield from self._check_reexports(module, exported)

    @staticmethod
    def _parse_all(module: ModuleInfo) -> tuple:
        for node in module.tree.body:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "__all__"):
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts
                ):
                    return [e.value for e in value.elts], node
                return None, node
        return None, None

    @staticmethod
    def _top_level_bindings(tree: ast.Module) -> set:
        bindings: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        bindings.update(
                            e.id for e in target.elts if isinstance(e, ast.Name)
                        )
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    bindings.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bindings.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        bindings.add(alias.asname or alias.name)
        return bindings

    def _check_unexported(
        self, module: ModuleInfo, exported: list, all_node: ast.AST
    ) -> Iterator[Violation]:
        for node in module.tree.body:
            names: list[str] = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [
                    t.id for t in node.targets
                    if isinstance(t, ast.Name) and t.id.isupper()
                ]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id.isupper():
                    names = [node.target.id]
            for name in names:
                if name.startswith("_") or name in exported:
                    continue
                kind = ("constant" if name.isupper() else
                        "class" if isinstance(node, ast.ClassDef) else
                        "function")
                yield Violation(
                    code=self.code,
                    message=f"public {kind} {name!r} is missing from "
                            "__all__ (export it or prefix it with '_')",
                    path=module.relpath, line=node.lineno,
                    col=node.col_offset,
                )

    def _check_reexports(
        self, module: ModuleInfo, exported: list
    ) -> Iterator[Violation]:
        package_root = module.dotted_name.split(".")[0] if module.dotted_name else None
        for node in module.tree.body:
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            is_project = node.level > 0 or (
                package_root and node.module.split(".")[0] == package_root
            )
            if not is_project:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if local.startswith("_") or alias.name == "*":
                    continue
                if local not in exported:
                    yield Violation(
                        code=self.code,
                        message=f"package __init__ imports {local!r} from "
                                f"{node.module} but does not re-export it in "
                                "__all__",
                        path=module.relpath, line=node.lineno,
                        col=node.col_offset,
                    )


def default_rules() -> list:
    """One instance of every registered rule, in code order."""
    from repro.tools.lint.engine import RULE_REGISTRY

    return [cls() for _, cls in sorted(RULE_REGISTRY.items())]
