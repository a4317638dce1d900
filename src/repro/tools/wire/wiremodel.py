"""The wire model: static facts about the serving contract.

One :func:`build_wire_model` pass over the shared
:class:`~repro.tools.flow.graph.FlowIndex` (plus the shape analyzer's
dtype facts) extracts everything the W-rules judge:

* **gateways** — for every class defining a ``_route`` method, the
  derived route table: a symbolic interpreter walks the routing
  conditionals (``segments == ("health",)``, ``request.method ==
  "POST"``, ``not rest``, ``rest[1:] == ("await",)`` ...) down to each
  terminal handler and records the path template, HTTP method, handled
  operation name, request/response JSON fields, and the statuses of
  every error kind raised in the handler's resolved-call closure —
  plus the ``/metrics/summary`` surface (operation names, the latency
  sample prefix, the summary document keys).
* **clients** — for every class defining a ``_request`` method, each
  public method's wire expectation: HTTP method, path template
  (f-string holes become ``*``), payload keys sent, and response keys
  read (directly, via ``.get``, or through a resolved decoder such as
  ``handle_from_wire``).
* **taxonomies** — the ``ERROR_STATUS``/``KIND_TO_ERROR`` dict
  literals of any module defining both, plus every ``raise`` and
  construction site of a ``ReproError``-family class across the
  analyzed tree (W502's completeness and round-trip evidence).
* **resource_sites** (W503) — sockets, servers, executors, started
  threads, connections and files acquired without ``with``/``try:
  finally`` protection against exception paths, with escape analysis
  for ownership transfer (returned, yielded, or stored on an object).
* **encode_sites** (W504) — values that cannot survive ``json.dumps``
  reaching a protocol encode site in a serving module: object-dtype
  arrays (shape model's lattice), numpy scalars, sets, non-finite
  float literals.
* **blocking_sites** (W505) — indefinitely blocking calls
  (``time.sleep``, no-timeout ``.wait()``, ``subprocess``, ``input``,
  ``select.select``) reachable from a gateway's handler closure, where
  the soft-timeout middleware can only answer *after* the handler
  returns.

The model is memoized on the shared
:class:`~repro.tools.indexing.IndexedProject` cache entry, so the six
analyzers in one process share a single parse and repeated wire runs
share this extraction.  Matching is name-based (like every analyzer in
the suite): aliased imports of an error class or a re-exported
``serve_background`` are invisible, which under-reports rather than
false-positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from repro.tools.flow.graph import FlowIndex, dotted_path

__all__ = [
    "ClientModel",
    "GatewayModel",
    "TaxonomyModel",
    "WireModel",
    "build_wire_model",
]

#: Attribute names whose call releases a tracked resource.
_RELEASE_ATTRS = frozenset({"close", "shutdown", "server_close", "join",
                            "terminate"})

#: Last path component of an acquisition constructor -> resource kind.
_ACQUIRE_NAMES = {
    "socket": "socket",
    "create_connection": "socket",
    "HTTPConnection": "connection",
    "HTTPSConnection": "connection",
    "ThreadPoolExecutor": "executor",
    "ProcessPoolExecutor": "executor",
    "HTTPServer": "server",
    "ThreadingHTTPServer": "server",
    "serve_background": "server",
}

#: ``subprocess`` entry points that block on a child process.
_SUBPROCESS_BLOCKERS = frozenset({"run", "call", "check_call",
                                  "check_output", "Popen"})

#: numpy scalar constructors whose instances ``json.dumps`` rejects.
_NP_SCALARS = frozenset({"float64", "float32", "int64", "int32", "intp",
                         "int8", "int16", "uint8", "bool_"})


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------

def _const_str(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_int(node) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def _dict_str_keys(node) -> tuple:
    """Sorted constant string keys of a dict literal (non-const ignored)."""
    if not isinstance(node, ast.Dict):
        return ()
    keys = {key.value for key in node.keys
            if key is not None and isinstance(key, ast.Constant)
            and isinstance(key.value, str)}
    return tuple(sorted(keys))


def _render_template(node) -> str | None:
    """A path template: constants verbatim, f-string holes become ``*``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _subscript_index(node):
    """The slice of a ``Subscript`` with 3.8-and-later AST compatibility."""
    inner = node.slice
    if isinstance(inner, ast.Index):  # pragma: no cover - pre-3.9 AST
        inner = inner.value
    return inner


def _read_keys(nodes, names: set) -> set:
    """Constant keys read off ``names`` via subscript or ``.get`` in ``nodes``."""
    keys: set = set()
    for node in nodes:
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in names:
            key = _const_str(_subscript_index(node))
            if key is not None:
                keys.add(key)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in names and node.args:
            key = _const_str(node.args[0])
            if key is not None:
                keys.add(key)
    return keys


# ----------------------------------------------------------------------
# Model dataclasses
# ----------------------------------------------------------------------

@dataclass
class GatewayModel:
    """One routing class (defines ``_route``) and its derived surface."""

    module_name: str
    relpath: str
    class_name: str
    line: int
    #: ``"METHOD /path/template" -> {operation, request, response,
    #: statuses, line}`` (``line`` is stripped for the spec).
    routes: dict = field(default_factory=dict)
    #: ``{"operations": (...), "sample_prefix": str|None,
    #: "summary_keys": (...)}``
    metrics: dict = field(default_factory=dict)


@dataclass
class ClientModel:
    """One client class (defines ``_request``) and its expectations."""

    module_name: str
    relpath: str
    class_name: str
    line: int
    #: ``method name -> {method, path, payload, reads, line}``.
    entries: dict = field(default_factory=dict)


@dataclass
class TaxonomyModel:
    """``ERROR_STATUS``/``KIND_TO_ERROR`` literals of one module."""

    module_name: str
    relpath: str
    line: int
    #: ``kind -> (status, line)``
    error_status: dict = field(default_factory=dict)
    #: ``kind -> (mapped class name, line)``
    kind_to_error: dict = field(default_factory=dict)


@dataclass
class WireModel:
    """Everything the W-rules judge, extracted in one pass."""

    index: FlowIndex
    #: the shape analyzer's model, shared for W504's dtype facts.
    shape_model: object = None
    gateways: list = field(default_factory=list)
    clients: list = field(default_factory=list)
    taxonomies: list = field(default_factory=list)
    #: error class name -> sorted [(relpath, line)] of ``raise`` sites.
    raised_kinds: dict = field(default_factory=dict)
    #: error class name -> sorted [(relpath, line)] of constructions.
    constructed_kinds: dict = field(default_factory=dict)
    #: (relpath, line, col, message) per unprotected resource (W503).
    resource_sites: list = field(default_factory=list)
    #: (relpath, line, col, message) per unsafe encode value (W504).
    encode_sites: list = field(default_factory=list)
    #: (relpath, line, col, message) per blocking handler call (W505).
    blocking_sites: list = field(default_factory=list)
    #: names in the ReproError class family (roots included).
    error_names: set = field(default_factory=set)
    #: project-defined HTTP-server subclasses (W503 acquisition names).
    server_names: set = field(default_factory=set)

    def routes(self) -> dict:
        """Merged route table across every gateway."""
        merged: dict = {}
        for gateway in self.gateways:
            merged.update(gateway.routes)
        return merged

    def client_entries(self) -> dict:
        """Merged client expectations across every client class."""
        merged: dict = {}
        for client in self.clients:
            merged.update(client.entries)
        return merged

    @cached_property
    def _bases(self) -> dict:
        """Class name -> tuple of base names, across the analyzed project."""
        bases: dict = {}
        for name, entries in self.index.project.class_defs().items():
            for _, _, base_names in entries:
                bases.setdefault(name, base_names)
        return bases

    def status_for_kind(self, kind: str) -> int:
        """HTTP status of an error kind via the taxonomy and base chain."""
        bases = self._bases
        seen: set = set()
        while kind and kind not in seen:
            seen.add(kind)
            for taxonomy in self.taxonomies:
                if kind in taxonomy.error_status:
                    return taxonomy.error_status[kind][0]
            kind = next((base for base in bases.get(kind, ())
                         if base in self.error_names), None)
        return 500


# ----------------------------------------------------------------------
# Route extraction: a symbolic interpreter over routing conditionals
# ----------------------------------------------------------------------

@dataclass
class _Constraints:
    """Accumulated path knowledge along one routing branch."""

    method: str | None = None
    exact_len: int | None = None
    min_len: int = 0
    literals: dict = field(default_factory=dict)

    def copy(self) -> "_Constraints":
        return _Constraints(self.method, self.exact_len, self.min_len,
                            dict(self.literals))


class _RouteExtractor:
    """Derives one gateway's route table from its ``_route`` method.

    The environment maps local names onto a tiny segment algebra —
    ``("request",)`` the request object, ``("tuple",)`` the full
    segment tuple, ``("item", i)`` one segment, ``("tail", s)`` the
    slice ``segments[s:]``, ``("def", node)`` a locally defined
    handler — and routing ``if`` tests translate into
    :class:`_Constraints` updates.  Unparseable tests are skipped
    conservatively (their bodies are walked with unchanged
    constraints), so a partially understood router still yields the
    routes it can prove.
    """

    def __init__(self, model: WireModel, index: FlowIndex,
                 module, class_name: str):
        self.model = model
        self.index = index
        self.module = module
        self.class_name = class_name
        self.routes: dict = {}
        self.operations: set = set()

    # -- environment -------------------------------------------------

    def _seg_expr(self, node, env):
        if isinstance(node, ast.Name):
            tag = env.get(node.id)
            if tag is not None and tag[0] in {"tuple", "item", "tail"}:
                return tag
            return None
        if isinstance(node, ast.Attribute) and node.attr == "segments" \
                and isinstance(node.value, ast.Name) \
                and env.get(node.value.id) == ("request",):
            return ("tuple",)
        if isinstance(node, ast.Subscript):
            base = self._seg_expr(node.value, env)
            if base is None:
                return None
            inner = _subscript_index(node)
            if isinstance(inner, ast.Slice):
                lower = _const_int(inner.lower) if inner.lower is not None \
                    else 0
                if lower is None or inner.upper is not None:
                    return None
                if base == ("tuple",):
                    return ("tail", lower)
                if base[0] == "tail":
                    return ("tail", base[1] + lower)
                return None
            offset = _const_int(inner)
            if offset is None or offset < 0:
                return None
            if base == ("tuple",):
                return ("item", offset)
            if base[0] == "tail":
                return ("item", base[1] + offset)
        return None

    def _bind(self, stmt: ast.Assign, env: dict) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            tag = self._seg_expr(stmt.value, env)
            if tag is not None:
                env[target.id] = tag
            return
        if isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple) \
                and len(target.elts) == len(stmt.value.elts):
            for name_node, value in zip(target.elts, stmt.value.elts):
                if not isinstance(name_node, ast.Name):
                    continue
                tag = self._seg_expr(value, env)
                if tag is not None:
                    env[name_node.id] = tag

    # -- tests -------------------------------------------------------

    def _apply_test(self, test, env, cons: _Constraints):
        """Constraints after ``test`` holds, or ``None`` if unparseable."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            out = cons
            parsed = False
            for value in test.values:
                new = self._apply_test(value, env, out)
                if new is not None:
                    out, parsed = new, True
            return out if parsed else None
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            tag = self._seg_expr(test.operand, env)
            if tag is not None and tag[0] == "tail":
                out = cons.copy()
                out.exact_len = tag[1]
                return out
            return None
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if isinstance(left, ast.Attribute) and left.attr == "method" \
                and isinstance(left.value, ast.Name) \
                and env.get(left.value.id) == ("request",) \
                and isinstance(op, ast.Eq):
            method = _const_str(right)
            if method is None:
                return None
            out = cons.copy()
            out.method = method
            return out
        if isinstance(left, ast.Call) and isinstance(left.func, ast.Name) \
                and left.func.id == "len" and len(left.args) == 1:
            tag = self._seg_expr(left.args[0], env)
            length = _const_int(right)
            if tag is None or length is None:
                return None
            base = tag[1] if tag[0] == "tail" else 0
            if tag[0] not in {"tuple", "tail"}:
                return None
            out = cons.copy()
            if isinstance(op, ast.Eq):
                out.exact_len = base + length
            elif isinstance(op, (ast.GtE, ast.Gt)):
                out.min_len = max(out.min_len, base + length)
            else:
                return None
            return out
        if not isinstance(op, ast.Eq):
            return None
        tag = self._seg_expr(left, env)
        if tag is None:
            return None
        if tag[0] == "item":
            literal = _const_str(right)
            if literal is None:
                return None
            out = cons.copy()
            out.literals[tag[1]] = literal
            return out
        if tag[0] in {"tuple", "tail"} and isinstance(right, ast.Tuple):
            values = [_const_str(elt) for elt in right.elts]
            if any(value is None for value in values):
                return None
            base = tag[1] if tag[0] == "tail" else 0
            out = cons.copy()
            out.exact_len = base + len(values)
            for offset, value in enumerate(values):
                out.literals[base + offset] = value
            return out
        return None

    # -- walking -----------------------------------------------------

    def extract(self, route_fn) -> dict:
        env: dict = {}
        params = route_fn.param_names()
        if params:
            env[params[0]] = ("request",)
        self._walk(route_fn.node.body, env, _Constraints(), depth=0)
        return self.routes

    def _walk(self, stmts, env, cons: _Constraints, depth: int) -> None:
        if depth > 4:
            return
        env = dict(env)
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._bind(stmt, env)
            elif isinstance(stmt, ast.FunctionDef):
                env[stmt.name] = ("def", stmt)
            elif isinstance(stmt, ast.If):
                inside = self._apply_test(stmt.test, env, cons)
                self._walk(stmt.body, env,
                           inside if inside is not None else cons, depth)
                if stmt.orelse:
                    self._walk(stmt.orelse, env, cons, depth)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                self._terminal(stmt, env, cons, depth)

    def _terminal(self, stmt, env, cons: _Constraints, depth: int) -> None:
        value = stmt.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "self":
            seg_args = [arg for arg in value.args
                        if isinstance(arg, ast.Name)
                        and env.get(arg.id) == ("tuple",)]
            target = self.index.functions.get(
                (self.module.dotted_name, f"{self.class_name}.{func.attr}")
            )
            if seg_args and target is not None:
                sub_env: dict = {}
                for param, arg in zip(target.param_names(), value.args):
                    if isinstance(arg, ast.Name) \
                            and env.get(arg.id) in {("request",), ("tuple",)}:
                        sub_env[param] = env[arg.id]
                self._walk(target.node.body, sub_env, cons, depth + 1)
                return
            dispatch = self._timed_dispatch(value, env)
            if dispatch is not None:
                operation, handler = dispatch
                self._record(stmt, cons, operation=operation,
                             request=(),
                             response=self._handler_response(handler),
                             statuses=(200,))
                return
            if target is not None:
                operation, request, response = \
                    self._method_details(target.node, env)
                self._record(stmt, cons, operation=operation,
                             request=request, response=response,
                             statuses=self._closure_statuses(target.key))
                return
        if isinstance(func, ast.Name):
            body = next((kw.value for kw in value.keywords
                         if kw.arg == "body"), None)
            self._record(stmt, cons, operation=None, request=(),
                         response=_dict_str_keys(body), statuses=(200,))

    def _timed_dispatch(self, call: ast.Call, env):
        """``(operation, handler expr/def)`` of a timed dispatch call.

        Matches ``self.<anything>(..., "operation", handler)`` where the
        handler is a lambda or a locally defined function — the router
        idiom for operations with no dedicated method.
        """
        operation = next((text for arg in call.args
                          if (text := _const_str(arg)) is not None), None)
        handler = None
        for arg in call.args:
            if isinstance(arg, ast.Lambda):
                handler = arg
            elif isinstance(arg, ast.Name) and env.get(arg.id, ())[:1] == ("def",):
                handler = env[arg.id][1]
        if operation is None or handler is None:
            return None
        self.operations.add(operation)
        return operation, handler

    def _handler_response(self, handler) -> tuple:
        """Response keys of a lambda or inner-def handler."""
        if isinstance(handler, ast.Lambda):
            return self._response_of_expr(handler.body)
        keys: set = set()
        for node in self.module.walk(handler):
            if isinstance(node, ast.Return) and node.value is not None:
                keys.update(self._response_of_expr(node.value))
        return tuple(sorted(keys))

    def _response_of_expr(self, expr) -> tuple:
        if isinstance(expr, ast.Dict):
            return _dict_str_keys(expr)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            info, _ = self.index.resolve_function(
                self.module.dotted_name, expr.func.id
            )
            if info is not None:
                keys: set = set()
                module = self.index.modules[info.module_name]
                for node in module.walk(info.node):
                    if isinstance(node, ast.Return) \
                            and isinstance(node.value, ast.Dict):
                        keys.update(_dict_str_keys(node.value))
                return tuple(sorted(keys))
        return ()

    def _method_details(self, fdef, env) -> tuple:
        """``(operation, request keys, response keys)`` of a handler method."""
        nodes = self.module.walk(fdef)
        body_names: set = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr == "json":
                body_names.add(node.targets[0].id)
        request = tuple(sorted(_read_keys(nodes, body_names)))

        local_env = dict(env)
        for stmt in nodes:
            if isinstance(stmt, ast.FunctionDef) and stmt is not fdef:
                local_env[stmt.name] = ("def", stmt)
        operation, response = None, ()
        for node in nodes:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self":
                dispatch = self._timed_dispatch(node, local_env)
                if dispatch is not None:
                    operation = dispatch[0]
                    response = self._handler_response(dispatch[1])
            elif isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Name):
                body = next((kw.value for kw in node.value.keywords
                             if kw.arg == "body"), None)
                if body is not None:
                    response = _dict_str_keys(body)
        return operation, request, response

    def _closure_statuses(self, start_key) -> tuple:
        """200 plus the statuses of error kinds raised in the closure."""
        statuses = {200}
        seen = {start_key}
        frontier = [start_key]
        while frontier and len(seen) <= 64:
            key = frontier.pop()
            info = self.index.functions.get(key)
            if info is None or key[0] not in self.index.modules:
                continue
            for node in self.index.modules[key[0]].walk(info.node):
                if isinstance(node, ast.Raise) \
                        and isinstance(node.exc, ast.Call) \
                        and isinstance(node.exc.func, ast.Name) \
                        and node.exc.func.id in self.model.error_names:
                    statuses.add(
                        self.model.status_for_kind(node.exc.func.id))
            for site in self.index.calls.get(key, ()):
                if site.target is not None and site.target not in seen:
                    seen.add(site.target)
                    frontier.append(site.target)
        return tuple(sorted(statuses))

    def _record(self, stmt, cons: _Constraints, operation, request,
                response, statuses) -> None:
        length = cons.exact_len
        if length is None:
            if not cons.literals:
                return
            length = max(cons.literals) + 1
        parts = [cons.literals.get(i, "*") for i in range(length)]
        key = f"{cons.method or '*'} /" + "/".join(parts)
        self.routes[key] = {
            "operation": operation,
            "request": tuple(request),
            "response": tuple(response),
            "statuses": tuple(statuses),
            "line": stmt.lineno,
        }


def _gateway_metrics(extractor: _RouteExtractor, classdef) -> dict:
    """Operation names, sample prefix and summary keys of one gateway."""
    prefix = None
    for node in extractor.module.walk(classdef):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "record_sample" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.JoinedStr) and arg.values \
                    and isinstance(arg.values[0], ast.Constant):
                prefix = str(arg.values[0].value)
            else:
                prefix = _const_str(arg)
    summary_keys: tuple = ()
    for key, route in extractor.routes.items():
        if key.endswith("/metrics/summary"):
            summary_keys = route["response"]
    return {
        "operations": tuple(sorted(extractor.operations)),
        "sample_prefix": prefix,
        "summary_keys": summary_keys,
    }


# ----------------------------------------------------------------------
# Client expectations
# ----------------------------------------------------------------------

def _client_prefix(index: FlowIndex, module, class_name: str) -> str:
    init = index.functions.get((module.dotted_name, f"{class_name}.__init__"))
    if init is None:
        return ""
    for node in module.walk(init.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Attribute) \
                and node.targets[0].attr == "_prefix":
            template = _render_template(node.value)
            if template is not None:
                return template
    return ""


def _derive_client(index: FlowIndex, module, classdef) -> ClientModel:
    client = ClientModel(
        module_name=module.dotted_name,
        relpath=module.relpath,
        class_name=classdef.name,
        line=classdef.lineno,
    )
    prefix = _client_prefix(index, module, classdef.name)
    for key in sorted(index.functions):
        info = index.functions[key]
        if key[0] != module.dotted_name \
                or info.class_name != classdef.name \
                or info.name.startswith("_"):
            continue
        nodes = module.walk(info.node)
        request_call = None
        for node in nodes:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_request" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self":
                request_call = node
                break
        if request_call is None or len(request_call.args) < 2:
            continue
        method = _const_str(request_call.args[0])
        path = _render_template(request_call.args[1])
        if method is None or path is None:
            continue
        absolute = any(
            kw.arg == "absolute" and isinstance(kw.value, ast.Constant)
            and kw.value.value is True for kw in request_call.keywords
        )
        full_path = path if absolute else prefix + path
        payload = _payload_keys(nodes, request_call)
        reads = _response_reads(index, module, nodes, request_call)
        client.entries[info.name] = {
            "method": method,
            "path": full_path,
            "payload": payload,
            "reads": reads,
            "line": request_call.lineno,
        }
    return client


def _payload_keys(nodes, request_call: ast.Call) -> tuple:
    if len(request_call.args) < 3:
        return ()
    payload = request_call.args[2]
    if isinstance(payload, ast.Dict):
        return _dict_str_keys(payload)
    if not isinstance(payload, ast.Name):
        return ()
    keys: set = set()
    for node in nodes:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name) and target.id == payload.id \
                and isinstance(node.value, ast.Dict):
            keys.update(_dict_str_keys(node.value))
        elif isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == payload.id:
            key = _const_str(_subscript_index(target))
            if key is not None:
                keys.add(key)
    return tuple(sorted(keys))


def _response_reads(index: FlowIndex, module, nodes,
                    request_call: ast.Call) -> tuple:
    """Response keys a client method (its ``nodes``, in walk order)
    reads off the ``_request`` result."""
    result_names: set = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and node.value is request_call \
                and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            result_names.add(node.targets[0].id)
    keys = _read_keys(nodes, result_names)
    for node in nodes:
        # ``self._request(...)["key"]`` — read straight off the call.
        if isinstance(node, ast.Subscript) and node.value is request_call:
            key = _const_str(_subscript_index(node))
            if key is not None:
                keys.add(key)
        # The result handed whole to a resolved decoder: the decoder's
        # reads of its first parameter are this method's reads.
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and len(node.args) == 1 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in result_names:
            info, _ = index.resolve_function(module.dotted_name,
                                             node.func.id)
            if info is not None:
                params = info.param_names()
                if params:
                    callee = index.modules[info.module_name]
                    keys.update(_read_keys(callee.walk(info.node),
                                           {params[0]}))
    return tuple(sorted(keys))


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

def _find_taxonomy(module) -> TaxonomyModel | None:
    status_node = module.top_level_assign("ERROR_STATUS")
    kind_node = module.top_level_assign("KIND_TO_ERROR")
    if not isinstance(status_node, ast.Dict) \
            or not isinstance(kind_node, ast.Dict):
        return None
    taxonomy = TaxonomyModel(
        module_name=module.dotted_name,
        relpath=module.relpath,
        line=status_node.lineno,
    )
    for key, value in zip(status_node.keys, status_node.values):
        kind, status = _const_str(key), _const_int(value)
        if kind is not None and status is not None:
            taxonomy.error_status[kind] = (status, key.lineno)
    for key, value in zip(kind_node.keys, kind_node.values):
        kind = _const_str(key)
        if kind is None:
            continue
        if isinstance(value, ast.Name):
            taxonomy.kind_to_error[kind] = (value.id, key.lineno)
        elif isinstance(value, ast.Attribute):
            taxonomy.kind_to_error[kind] = (value.attr, key.lineno)
    return taxonomy


def _collect_error_sites(model: WireModel) -> None:
    for module in model.index.project.modules:
        for node in module.nodes:
            if isinstance(node, ast.Raise):
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call) \
                        and isinstance(exc.func, ast.Name):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name in model.error_names:
                    model.raised_kinds.setdefault(name, []).append(
                        (module.relpath, node.lineno))
            elif isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name in model.error_names:
                    model.constructed_kinds.setdefault(name, []).append(
                        (module.relpath, node.lineno))
    for sites in model.raised_kinds.values():
        sites.sort()
    for sites in model.constructed_kinds.values():
        sites.sort()


# ----------------------------------------------------------------------
# Resource lifecycle (W503)
# ----------------------------------------------------------------------

@dataclass
class _Tracked:
    """One acquired resource name inside one function."""

    name: str
    kind: str
    line: int
    col: int
    is_thread: bool = False
    started: bool = False


def _acquisition_kind(call: ast.Call,
                      server_names=frozenset()) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    if name == "open":
        # Only the builtin (or ``path.open``) counts, and only outside
        # a ``with``; matched by name like everything else here.
        return "file"
    if name == "Thread":
        return "thread"
    if name in server_names:
        return "server"
    return _ACQUIRE_NAMES.get(name)


class _ResourceScanner:
    """W503: resources acquired without exception-path protection."""

    def __init__(self, model: WireModel, module):
        self.model = model
        self.module = module

    def scan(self, fdef) -> None:
        self.tracked: dict[str, _Tracked] = {}
        self.aliases: dict[str, str] = {}
        self._collect(fdef)
        if not self.tracked:
            return
        self._mark_aliases_and_starts(fdef)
        self.escaped = self._escapes(fdef)
        self._released_somewhere = {
            name: self._releases_in(fdef, name) for name in self.tracked
        }
        self._analyze_block(fdef.body, enclosing_tries=[])

    # -- collection --------------------------------------------------

    def _collect(self, fdef) -> None:
        # The whole subtree, nested defs and class bodies included: their
        # assignments are tracked by name next to the function's own.
        protected: set = set()
        assigns: list = []
        for node in self.module.walk(fdef):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    protected.add(id(item.context_expr))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                assigns.append(node)
        for node in assigns:
            value = node.targets[0], node.value
            target, expr = value
            names: list = []
            if isinstance(target, ast.Name):
                names = [target.id]
            elif isinstance(target, ast.Tuple) and all(
                    isinstance(elt, ast.Name) for elt in target.elts):
                names = [elt.id for elt in target.elts]
            if not names:
                continue
            call = None
            if isinstance(expr, ast.Call) and id(expr) not in protected:
                call = expr
            elif isinstance(expr, ast.ListComp) \
                    and isinstance(expr.elt, ast.Call):
                call = expr.elt
            if call is None:
                continue
            kind = _acquisition_kind(call, self.model.server_names)
            if kind is None:
                continue
            for name in names:
                self.tracked[name] = _Tracked(
                    name=name, kind=kind, line=node.lineno,
                    col=node.col_offset, is_thread=(kind == "thread"),
                )

    def _mark_aliases_and_starts(self, fdef) -> None:
        nodes = self.module.walk(fdef)
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.target, ast.Name) \
                    and isinstance(node.iter, ast.Name) \
                    and node.iter.id in self.tracked:
                self.aliases[node.target.id] = node.iter.id
        for node in nodes:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "start" \
                    and isinstance(node.func.value, ast.Name):
                owner = self._owner(node.func.value.id)
                if owner is not None:
                    self.tracked[owner].started = True

    def _owner(self, name: str) -> str | None:
        if name in self.tracked:
            return name
        return self.aliases.get(name)

    def _escapes(self, fdef) -> set:
        escaped: set = set()
        for node in self.module.walk(fdef):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id in self.tracked:
                        escaped.add(sub.id)
            elif isinstance(node, ast.Assign):
                stores_out = any(
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    for target in node.targets
                )
                if stores_out:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name) \
                                and sub.id in self.tracked:
                            escaped.add(sub.id)
        return escaped

    # -- protection analysis -----------------------------------------

    def _releases_in(self, node, name: str) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in _RELEASE_ATTRS \
                    and isinstance(sub.func.value, ast.Name) \
                    and self._owner(sub.func.value.id) == name:
                return True
        return False

    def _risky(self, stmts) -> bool:
        """Any call in ``stmts`` that could raise past the resource."""
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Name) \
                        and self._owner(func.value.id) is not None:
                    continue  # protocol call on a tracked resource
                if _acquisition_kind(node,
                                     self.model.server_names) is not None:
                    continue  # sibling acquisition, reported on its own
                return True
        return False

    def _analyze_block(self, stmts, enclosing_tries) -> None:
        for i, stmt in enumerate(stmts):
            for name in self._acquired_by(stmt):
                self._check(name, stmts, i, enclosing_tries)
            if isinstance(stmt, ast.Try):
                self._analyze_block(stmt.body, enclosing_tries + [stmt])
                for handler in stmt.handlers:
                    self._analyze_block(handler.body, enclosing_tries)
                self._analyze_block(stmt.orelse, enclosing_tries)
                self._analyze_block(stmt.finalbody, enclosing_tries)
            elif isinstance(stmt, (ast.If,)):
                self._analyze_block(stmt.body, enclosing_tries)
                self._analyze_block(stmt.orelse, enclosing_tries)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._analyze_block(stmt.body, enclosing_tries)
                self._analyze_block(stmt.orelse, enclosing_tries)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._analyze_block(stmt.body, enclosing_tries)

    def _acquired_by(self, stmt) -> list:
        if not isinstance(stmt, ast.Assign):
            return []
        return [name for name, info in self.tracked.items()
                if info.line == stmt.lineno]

    def _check(self, name, block, i, enclosing_tries) -> None:
        info = self.tracked[name]
        if name in self.escaped:
            return
        if info.is_thread and not info.started:
            return  # an unstarted Thread object holds no OS resource
        for guard in enclosing_tries:
            protected = guard.finalbody + [h for h in guard.handlers]
            if any(self._releases_in(node, name) for node in protected):
                return
        for j in range(i + 1, len(block)):
            stmt = block[j]
            release_in_cleanup = isinstance(stmt, ast.Try) and any(
                self._releases_in(node, name)
                for node in stmt.finalbody + list(stmt.handlers)
            )
            if release_in_cleanup or self._releases_in(stmt, name):
                if self._risky(block[i + 1:j]):
                    self._report(
                        info,
                        f"{info.kind} `{name}` is released only on the "
                        "success path: calls between the acquisition and "
                        "the release/try-finally can raise and leak it",
                    )
                return
        # A release elsewhere in the function (a different nesting
        # level, e.g. a sibling handler) is accepted conservatively;
        # only a resource with no release at all is reported here.
        if not self._released_somewhere.get(name, False):
            self._report(
                info,
                f"{info.kind} `{name}` is acquired but never released, "
                "returned, or stored; close it in a finally block or "
                "use a context manager",
            )

    def _report(self, info: _Tracked, message: str) -> None:
        self.model.resource_sites.append(
            (self.module.relpath, info.line, info.col, message))


def _scan_resources(model: WireModel) -> None:
    for key in sorted(model.index.functions):
        module = model.index.modules.get(key[0])
        if module is None or module not in model.index.project.modules:
            continue
        scanner = _ResourceScanner(model, module)
        scanner.scan(model.index.functions[key].node)


# ----------------------------------------------------------------------
# JSON wire-safety (W504)
# ----------------------------------------------------------------------

def _np_scalar_call(node) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    path = dotted_path(node.func)
    if path is not None and len(path) == 2 \
            and path[0] in {"np", "numpy"} and path[1] in _NP_SCALARS:
        return ".".join(path)
    return None


def _nonfinite_literal(node) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "float" and node.args:
        text = _const_str(node.args[0])
        if text is not None and text.strip("+-").lower() in {"nan", "inf",
                                                             "infinity"}:
            return f"float({text!r})"
    path = dotted_path(node)
    if path is not None and len(path) == 2 and path[0] in {"np", "numpy"} \
            and path[1] in {"nan", "inf"}:
        return ".".join(path)
    return None


def _scan_encode_sites(model: WireModel, shape_model) -> None:
    serving_modules = {
        module.dotted_name for module in model.index.project.modules
        if "serving" in module.dotted_name.split(".")
    }
    for key in sorted(model.index.functions):
        if key[0] not in serving_modules:
            continue
        info = model.index.functions[key]
        module = model.index.modules.get(key[0])
        if module is None:
            continue
        facts = {}
        shaped = shape_model.functions.get(key)
        if shaped is not None:
            facts = shaped.facts
        for node in module.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            path = dotted_path(func)
            if isinstance(func, ast.Name) and func.id == "encode_array" \
                    and node.args:
                _check_encode_value(model, module, node.args[0], facts,
                                    site="encode_array",
                                    arrays_expected=True)
            elif path == ("json", "dumps") and node.args:
                _check_encode_value(model, module, node.args[0], facts,
                                    site="json.dumps",
                                    arrays_expected=False)
            elif isinstance(func, ast.Name) and func.id == "Response":
                body = next((kw.value for kw in node.keywords
                             if kw.arg == "body"), None)
                if isinstance(body, ast.Dict):
                    for value in body.values:
                        _check_encode_value(model, module, value, facts,
                                            site="Response body",
                                            arrays_expected=False)


def _check_encode_value(model: WireModel, module, value, facts,
                        site: str, arrays_expected: bool) -> None:
    def report(message: str) -> None:
        model.encode_sites.append(
            (module.relpath, value.lineno, value.col_offset, message))

    if isinstance(value, (ast.Set, ast.SetComp)):
        report(f"set literal reaches {site}; JSON has no set type — "
               "encode a sorted list instead")
        return
    scalar = _np_scalar_call(value)
    if scalar is not None:
        report(f"numpy scalar {scalar}(...) reaches {site}; "
               "json.dumps rejects numpy scalar types — call .item() "
               "or float()/int() first")
        return
    nonfinite = _nonfinite_literal(value)
    if nonfinite is not None:
        report(f"non-finite float {nonfinite} reaches {site}; it "
               "serializes as bare NaN/Infinity, which strict JSON "
               "decoders reject")
        return
    if isinstance(value, ast.Name):
        fact = facts.get(value.id)
        if fact is None:
            return
        if fact.dtype == "object":
            report(f"object-dtype array `{value.id}` reaches {site}; "
                   "tolist() yields arbitrary Python objects "
                   "json.dumps cannot encode")
        elif not arrays_expected and fact.is_array():
            report(f"ndarray `{value.id}` reaches {site} without "
                   "encode_array(); json.dumps rejects ndarrays")
    elif isinstance(value, ast.Dict) and not arrays_expected:
        for sub in value.values:
            _check_encode_value(model, module, sub, facts, site,
                                arrays_expected)


# ----------------------------------------------------------------------
# Blocking calls in handler threads (W505)
# ----------------------------------------------------------------------

def _blocking_reason(node: ast.Call) -> str | None:
    path = dotted_path(node.func)
    if path == ("time", "sleep"):
        return "time.sleep() blocks the handler thread"
    if path == ("select", "select"):
        return "select.select() blocks the handler thread"
    if path is not None and len(path) == 2 and path[0] == "subprocess" \
            and path[1] in _SUBPROCESS_BLOCKERS:
        return f"subprocess.{path[1]}() blocks on a child process"
    if isinstance(node.func, ast.Name) and node.func.id == "input":
        return "input() blocks on stdin"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "wait" \
            and not node.args and not node.keywords:
        return ("`.wait()` with no timeout can block this handler "
                "thread forever")
    return None


def _scan_blocking(model: WireModel) -> None:
    for gateway in model.gateways:
        roots = [
            key for key, info in model.index.functions.items()
            if key[0] == gateway.module_name
            and info.class_name == gateway.class_name
        ]
        seen = set(roots)
        frontier = list(roots)
        while frontier and len(seen) <= 128:
            key = frontier.pop()
            info = model.index.functions.get(key)
            if info is None or key[0] not in model.index.modules:
                continue
            module = model.index.modules[key[0]]
            for node in module.walk(info.node):
                if isinstance(node, ast.Call):
                    reason = _blocking_reason(node)
                    if reason is not None:
                        model.blocking_sites.append((
                            module.relpath, node.lineno, node.col_offset,
                            f"{reason}; the soft-timeout middleware only "
                            "answers after the handler returns "
                            f"[reachable from {gateway.class_name}]",
                        ))
            for site in model.index.calls.get(key, ()):
                if site.target is not None and site.target not in seen:
                    seen.add(site.target)
                    frontier.append(site.target)
    model.blocking_sites.sort()


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def build_wire_model(index: FlowIndex, shape_model) -> WireModel:
    """Extract every wire fact the W-rules need, in one pass."""
    model = WireModel(index=index, shape_model=shape_model)
    model.error_names = (
        index.project.subclasses_of(["ReproError"]) | {"ReproError"}
    )
    model.server_names = index.project.subclasses_of(
        ["HTTPServer", "ThreadingHTTPServer"]
    )

    for dotted in sorted(index.modules):
        module = index.modules[dotted]
        if module not in index.project.modules:
            continue  # context modules inform resolution, not findings
        taxonomy = _find_taxonomy(module)
        if taxonomy is not None:
            model.taxonomies.append(taxonomy)
        for (mod_name, class_name), classdef in sorted(index.classes.items()):
            if mod_name != dotted:
                continue
            route_fn = index.functions.get((dotted, f"{class_name}._route"))
            if route_fn is not None:
                extractor = _RouteExtractor(model, index, module, class_name)
                extractor.extract(route_fn)
                model.gateways.append(GatewayModel(
                    module_name=dotted,
                    relpath=module.relpath,
                    class_name=class_name,
                    line=classdef.lineno,
                    routes=extractor.routes,
                    metrics=_gateway_metrics(extractor, classdef),
                ))
            if (dotted, f"{class_name}._request") in index.functions:
                model.clients.append(
                    _derive_client(index, module, classdef))

    _collect_error_sites(model)
    _scan_resources(model)
    _scan_encode_sites(model, shape_model)
    _scan_blocking(model)
    model.resource_sites.sort()
    model.encode_sites.sort()
    return model
