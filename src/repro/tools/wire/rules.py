"""The W-rules: static wire-contract findings over the shared wire model.

Each rule queries the :class:`~repro.tools.wire.wiremodel.WireModel`
built once per run and injected by the runner (mirroring how the
S-rules receive the shape model).  All six are project rules, but every
violation is anchored to the file and line of the offending route,
mapping, or acquisition, so the shared suppression machinery applies
unchanged.

The catalogue:

* **W501** — wire-contract conformance: the route table derived from
  the server's routing code and the expectations derived from the
  client must agree with each other and with the checked-in
  ``wire_spec.py``.
* **W502** — error-taxonomy completeness and round-trip: every raised
  ``ReproError`` kind maps through ``ERROR_STATUS``/``KIND_TO_ERROR``
  back to the same class; unmapped raises and dead mappings flagged.
* **W503** — resource lifecycle: sockets/servers/executors/started
  threads/files acquired without ``with``/``try: finally`` protection
  on exception paths.
* **W504** — JSON wire-safety: object-dtype arrays, numpy scalars,
  sets and non-finite floats reaching a protocol encode site.
* **W505** — blocking calls reachable from a gateway handler: the
  soft-timeout middleware only answers after the handler returns, so
  an indefinite block escapes it.
* **W506** — ``/metrics/summary`` drift: operation names, the latency
  sample prefix and the summary keys must match the spec's metrics
  section.

Every rule is a silent no-op when its subject is absent (no gateway,
no client, no taxonomy), so the analyzer stays quiet on trees that
have no serving layer at all.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.tools.lint.engine import Project, Rule, Violation
from repro.tools.specs import load_literal_spec, spec_relpath
from repro.tools.wire.spec import DEFAULT_SPEC_PATH, derive_wire_spec
from repro.tools.wire.wiremodel import WireModel

__all__ = [
    "BlockingHandlerRule",
    "EncodeSafetyRule",
    "ErrorTaxonomyRule",
    "MetricsSpecRule",
    "ResourceLifecycleRule",
    "RouteConformanceRule",
    "WireRule",
    "default_wire_rules",
]


class WireRule(Rule):
    """Base class for W-rules; the runner injects the wire model."""

    def __init__(self, model: WireModel | None = None):
        self.model = model

    def _site_violations(self, sites) -> Iterable[Violation]:
        for relpath, line, col, message in sites:
            yield Violation(
                code=self.code, message=message,
                path=relpath, line=line, col=col,
            )


class _SpecRule(WireRule):
    """A W-rule that also diffs a derivation against ``wire_spec.py``."""

    def __init__(self, model: WireModel | None = None,
                 spec_path: Path = DEFAULT_SPEC_PATH):
        super().__init__(model)
        self.spec_path = spec_path

    def _load_spec(self) -> dict | None:
        return load_literal_spec(self.spec_path, "WIRE_SPEC")


class RouteConformanceRule(_SpecRule):
    """W501: derived routes/client expectations vs each other and spec."""

    code = "W501"
    name = "wire-contract"
    description = (
        "The route table derived from the server's routing code "
        "(paths, methods, statuses, request/response JSON fields) and "
        "the expectations derived from the HTTP client must agree "
        "with each other and with the checked-in wire_spec.py; run "
        "`repro check --update-spec wire` to record an intentional change."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Diff derived routes and client expectations against the spec."""
        model = self.model
        if not model.gateways and not model.clients:
            return
        routes = model.routes()
        anchors = {}
        for gateway in model.gateways:
            for key, route in gateway.routes.items():
                anchors[key] = (gateway.relpath, route["line"])

        # Client/server cross-consistency needs no spec: a client
        # method must target a derived route and stay inside its
        # request/response fields.
        if model.gateways:
            for client in model.clients:
                for name, entry in sorted(client.entries.items()):
                    key = f"{entry['method']} {entry['path']}"
                    route = routes.get(key)
                    if route is None:
                        yield Violation(
                            code=self.code,
                            message=(
                                f"client method {name}() targets "
                                f"`{key}`, which matches no route "
                                "derived from the server"
                            ),
                            path=client.relpath, line=entry["line"],
                        )
                        continue
                    extra = sorted(
                        set(entry["payload"]) - set(route["request"]))
                    if extra and route["request"]:
                        yield Violation(
                            code=self.code,
                            message=(
                                f"client method {name}() sends payload "
                                f"key(s) {', '.join(extra)} that the "
                                f"`{key}` handler never reads"
                            ),
                            path=client.relpath, line=entry["line"],
                        )
                    unread = sorted(
                        set(entry["reads"]) - set(route["response"]))
                    if unread:
                        yield Violation(
                            code=self.code,
                            message=(
                                f"client method {name}() reads key(s) "
                                f"{', '.join(unread)} absent from the "
                                f"`{key}` response"
                            ),
                            path=client.relpath, line=entry["line"],
                        )

        spec = self._load_spec()
        spec_file = spec_relpath(model.index, self.spec_path)
        if spec is None:
            yield Violation(
                code=self.code,
                message=(
                    "wire spec is missing or unreadable at "
                    f"{self.spec_path}; run `repro check --update-spec wire`"
                ),
                path=spec_file, line=1,
            )
            return
        derived = derive_wire_spec(model)

        spec_routes = spec.get("routes", {})
        for key in sorted(derived["routes"]):
            relpath, line = anchors.get(key, (spec_file, 1))
            if key not in spec_routes:
                yield Violation(
                    code=self.code,
                    message=(
                        f"route `{key}` is not in the wire spec; run "
                        "`repro check --update-spec wire` to record it"
                    ),
                    path=relpath, line=line,
                )
            elif spec_routes[key] != derived["routes"][key]:
                changed = sorted(
                    field for field in
                    set(spec_routes[key]) | set(derived["routes"][key])
                    if spec_routes[key].get(field)
                    != derived["routes"][key].get(field)
                )
                yield Violation(
                    code=self.code,
                    message=(
                        f"derived contract of route `{key}` disagrees "
                        f"with the spec on {', '.join(changed)}; restore "
                        "the recorded contract or run `repro check "
                        "--update-spec wire` to accept the change"
                    ),
                    path=relpath, line=line,
                )
        for key in sorted(set(spec_routes) - set(derived["routes"])):
            yield Violation(
                code=self.code,
                message=(
                    f"spec route `{key}` matches no route derived from "
                    "the server (renamed or removed); run `repro check "
                    "--update-spec wire` to drop it"
                ),
                path=spec_file, line=1,
            )

        spec_client = spec.get("client", {})
        entries = model.client_entries()
        entry_anchors = {}
        for client in model.clients:
            for name, entry in client.entries.items():
                entry_anchors[name] = (client.relpath, entry["line"])
        for name in sorted(derived["client"]):
            relpath, line = entry_anchors.get(name, (spec_file, 1))
            if name not in spec_client:
                yield Violation(
                    code=self.code,
                    message=(
                        f"client method {name}() is not in the wire "
                        "spec; run `repro check --update-spec wire` to "
                        "record it"
                    ),
                    path=relpath, line=line,
                )
            elif spec_client[name] != derived["client"][name]:
                changed = sorted(
                    field for field in
                    set(spec_client[name]) | set(derived["client"][name])
                    if spec_client[name].get(field)
                    != derived["client"][name].get(field)
                )
                yield Violation(
                    code=self.code,
                    message=(
                        f"derived expectation of client method {name}() "
                        f"disagrees with the spec on {', '.join(changed)}; "
                        "run `repro check --update-spec wire` to accept "
                        "the change"
                    ),
                    path=relpath, line=line,
                )
        for name in sorted(set(spec_client) - set(entries)):
            yield Violation(
                code=self.code,
                message=(
                    f"spec client method {name}() matches no derived "
                    "client method (renamed or removed); run `repro check "
                    "--update-spec wire` to drop it"
                ),
                path=spec_file, line=1,
            )


class ErrorTaxonomyRule(_SpecRule):
    """W502: ERROR_STATUS/KIND_TO_ERROR completeness and round-trip."""

    code = "W502"
    name = "error-taxonomy"
    description = (
        "Every ReproError kind raised anywhere in the analyzed tree "
        "must map through KIND_TO_ERROR back to the same class so the "
        "client re-raises what the server raised; ERROR_STATUS and "
        "KIND_TO_ERROR must cover the same kinds, dead mappings (never "
        "raised or constructed) are flagged, and the status table must "
        "match the spec's errors section."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Prove the taxonomy complete, alive, and round-trippable."""
        model = self.model
        if not model.taxonomies:
            return
        for taxonomy in model.taxonomies:
            status_kinds = set(taxonomy.error_status)
            mapped_kinds = set(taxonomy.kind_to_error)
            for kind in sorted(status_kinds - mapped_kinds):
                yield Violation(
                    code=self.code,
                    message=(
                        f"error kind {kind} has a status in ERROR_STATUS "
                        "but no KIND_TO_ERROR entry: the client cannot "
                        "restore the class the server raised"
                    ),
                    path=taxonomy.relpath,
                    line=taxonomy.error_status[kind][1],
                )
            for kind in sorted(mapped_kinds - status_kinds):
                yield Violation(
                    code=self.code,
                    message=(
                        f"error kind {kind} is in KIND_TO_ERROR but has "
                        "no ERROR_STATUS entry: the server would fall "
                        "back to a base-class status for it"
                    ),
                    path=taxonomy.relpath,
                    line=taxonomy.kind_to_error[kind][1],
                )
            for kind in sorted(mapped_kinds):
                value, line = taxonomy.kind_to_error[kind]
                if value != kind:
                    yield Violation(
                        code=self.code,
                        message=(
                            f"KIND_TO_ERROR[{kind!r}] maps to {value}: "
                            "the wire round-trip must restore the same "
                            "exception class it serialized"
                        ),
                        path=taxonomy.relpath, line=line,
                    )
            # Dead mapping: a kind the taxonomy promises to restore but
            # nothing in the tree ever raises *or constructs*
            # (constructions count: DeadlineExceededError is built by
            # the soft-timeout middleware and raised by the client).
            alive = set(model.raised_kinds) | set(model.constructed_kinds)
            for kind in sorted(mapped_kinds & status_kinds):
                if kind == "ReproError":
                    continue  # documented MRO fallback for unknown kinds
                if kind not in alive and kind in model.error_names:
                    yield Violation(
                        code=self.code,
                        message=(
                            f"mapped error kind {kind} is never raised "
                            "or constructed in the analyzed tree; drop "
                            "the dead mapping or wire the error up"
                        ),
                        path=taxonomy.relpath,
                        line=taxonomy.kind_to_error[kind][1],
                    )

        mapped_anywhere = set()
        for taxonomy in model.taxonomies:
            mapped_anywhere |= set(taxonomy.kind_to_error)
        for kind in sorted(set(model.raised_kinds) & model.error_names):
            # Private kinds (leading underscore) are internal control
            # flow by convention — caught where they are raised, never
            # serialized — so only public kinds need wire mappings.
            if kind in mapped_anywhere or kind.startswith("_"):
                continue
            relpath, line = model.raised_kinds[kind][0]
            yield Violation(
                code=self.code,
                message=(
                    f"{kind} is raised here but has no KIND_TO_ERROR "
                    "mapping: over the wire it degrades to its nearest "
                    "mapped base class and the client re-raises the "
                    "wrong type"
                ),
                path=relpath, line=line,
            )

        spec = self._load_spec()
        if spec is None or "errors" not in spec:
            return
        derived = derive_wire_spec(model)["errors"]
        spec_errors = spec["errors"]
        for taxonomy in model.taxonomies:
            for kind in sorted(set(derived) | set(spec_errors)):
                if derived.get(kind) == spec_errors.get(kind):
                    continue
                line = taxonomy.error_status.get(kind, (0, taxonomy.line))[1]
                yield Violation(
                    code=self.code,
                    message=(
                        f"error kind {kind} maps to status "
                        f"{derived.get(kind)} but the wire spec records "
                        f"{spec_errors.get(kind)}; run `repro check "
                        "--update-spec wire` to accept the change"
                    ),
                    path=taxonomy.relpath, line=line,
                )


class ResourceLifecycleRule(WireRule):
    """W503: resources acquired without exception-path protection."""

    code = "W503"
    name = "resource-lifecycle"
    description = (
        "A socket, server, executor, started thread, connection or "
        "file acquired without a context manager must be released in "
        "a finally block (or an enclosing try's cleanup) that no "
        "raising call can bypass; resources that are returned, "
        "yielded, or stored on an object transfer ownership and are "
        "exempt."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report every unprotected acquisition the scanner found."""
        yield from self._site_violations(self.model.resource_sites)


class EncodeSafetyRule(WireRule):
    """W504: non-JSON-serializable values reaching an encode site."""

    code = "W504"
    name = "json-wire-safety"
    description = (
        "Values reaching a protocol encode site (encode_array, "
        "json.dumps, a Response body) must survive json.dumps: "
        "object-dtype arrays (from the shape analyzer's dtype "
        "lattice), numpy scalars, sets and non-finite float literals "
        "are flagged in serving modules."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report every unsafe value the encode-site scan found."""
        yield from self._site_violations(self.model.encode_sites)


class BlockingHandlerRule(WireRule):
    """W505: indefinitely blocking calls reachable from a handler."""

    code = "W505"
    name = "blocking-handler"
    description = (
        "The soft-timeout middleware can only answer after the "
        "handler returns, so time.sleep, no-timeout .wait(), "
        "subprocess, input() or select.select reachable from a "
        "gateway method blocks a serving thread past every deadline."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Report blocking calls in the gateway's resolved call closure."""
        yield from self._site_violations(self.model.blocking_sites)


class MetricsSpecRule(_SpecRule):
    """W506: /metrics/summary drift vs the spec's metrics section."""

    code = "W506"
    name = "metrics-spec"
    description = (
        "The timed operation names, the latency-sample key prefix and "
        "the /metrics/summary document keys derived from the gateway "
        "must match the wire spec's metrics section, so dashboards "
        "and the bench harness never chase renamed metrics; run "
        "`repro check --update-spec wire` to accept an intentional rename."
    )

    def check_project(self, project: Project) -> Iterable[Violation]:
        """Diff each gateway's metrics surface against the spec."""
        model = self.model
        if not model.gateways:
            return
        spec = self._load_spec()
        if spec is None or "metrics" not in spec or not spec["metrics"]:
            return
        expected = spec["metrics"]
        for gateway in model.gateways:
            derived = {
                "operations": tuple(gateway.metrics.get("operations", ())),
                "sample_prefix": gateway.metrics.get("sample_prefix"),
                "summary_keys": tuple(
                    gateway.metrics.get("summary_keys", ())),
            }
            changed = sorted(
                field for field in set(derived) | set(expected)
                if derived.get(field) != expected.get(field)
            )
            if changed:
                yield Violation(
                    code=self.code,
                    message=(
                        f"metrics surface of {gateway.class_name} "
                        "disagrees with the wire spec on "
                        f"{', '.join(changed)}; restore the recorded "
                        "names or run `repro check --update-spec wire` to "
                        "accept the rename"
                    ),
                    path=gateway.relpath, line=gateway.line,
                )


def default_wire_rules(model: WireModel | None = None,
                       spec_path: Path | None = None) -> list:
    """The six W-rules, in code order, sharing one wire model."""
    return [
        RouteConformanceRule(model, spec_path or DEFAULT_SPEC_PATH),
        ErrorTaxonomyRule(model, spec_path or DEFAULT_SPEC_PATH),
        ResourceLifecycleRule(model),
        EncodeSafetyRule(model),
        BlockingHandlerRule(model),
        MetricsSpecRule(model, spec_path or DEFAULT_SPEC_PATH),
    ]
