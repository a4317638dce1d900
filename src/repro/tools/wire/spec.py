"""The checked-in wire spec: derivation, rendering, loading.

``wire_spec.py`` is the serving layer's analogue of the flow
analyzer's ``api_spec.json`` and the shape analyzer's
``array_contracts_spec.py``: a reviewable literal snapshot of the wire
contract the analyzer derived from the code.  W501 (routes and client
expectations), W502 (error-status table) and W506 (metrics surface)
diff the current derivation against it, so any change to the HTTP
surface shows up twice in a PR — once in the code and once in the
spec refreshed via ``repro check --update-spec wire``.

The file is rendered deterministically (sorted keys, one entry per
line, tuples for sequences) so ``--update-spec`` is byte-identical
when nothing changed, and loaded with :func:`ast.literal_eval` so
importing it never executes code.
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = [
    "DEFAULT_SPEC_PATH",
    "derive_wire_spec",
    "load_spec",
    "render_spec",
    "write_spec",
]

#: Where the real tree's spec lives (next to this module).
DEFAULT_SPEC_PATH = Path(__file__).resolve().parent / "wire_spec.py"

_HEADER = '''"""Checked-in wire contract for the serving layer (W501/W502/W506).

Generated by ``repro wire --update-spec``.  Each section is a literal
snapshot of what the analyzer derives from the code:

* ``routes`` — the server's route table: ``"METHOD /path/template"``
  (``*`` marks a path parameter) mapped to the handled operation name,
  the request/response JSON fields, and the statuses of every error
  kind raised in the handler's closure.
* ``client`` — the HTTP client's expectations per public method:
  wire method, path template, payload keys sent, response keys read.
* ``errors`` — the ReproError taxonomy: error kind to HTTP status.
* ``metrics`` — the ``/metrics/summary`` surface: timed operation
  names, the latency-sample key prefix, and the summary document keys.

This file is data, not code: edit it only via ``--update-spec``.
"""

__all__ = ["WIRE_SPEC"]

'''


def derive_wire_spec(model) -> dict:
    """The spec literal for a :class:`~.wiremodel.WireModel`.

    Line numbers are stripped: the spec records the contract, not the
    layout, so moving a handler does not churn the checked-in file.
    """
    routes = {}
    for key, route in sorted(model.routes().items()):
        routes[key] = {
            "operation": route["operation"],
            "request": tuple(route["request"]),
            "response": tuple(route["response"]),
            "statuses": tuple(route["statuses"]),
        }
    client = {}
    for name, entry in sorted(model.client_entries().items()):
        client[name] = {
            "method": entry["method"],
            "path": entry["path"],
            "payload": tuple(entry["payload"]),
            "reads": tuple(entry["reads"]),
        }
    errors = {}
    for taxonomy in model.taxonomies:
        for kind, (status, _) in taxonomy.error_status.items():
            errors[kind] = status
    metrics = {}
    for gateway in model.gateways:
        if gateway.metrics:
            metrics = {
                "operations": tuple(gateway.metrics.get("operations", ())),
                "sample_prefix": gateway.metrics.get("sample_prefix"),
                "summary_keys": tuple(
                    gateway.metrics.get("summary_keys", ())),
            }
    return {
        "client": client,
        "errors": dict(sorted(errors.items())),
        "metrics": metrics,
        "routes": routes,
    }


def render_spec(spec: dict) -> str:
    """Deterministic source text for ``spec`` (two-level rendering)."""
    lines = [_HEADER, "WIRE_SPEC = {"]
    for section in sorted(spec):
        lines.append(f"    {section!r}: {{")
        for key in sorted(spec[section]):
            lines.append(f"        {key!r}: {spec[section][key]!r},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_spec(spec: dict, path: Path) -> None:
    """Render ``spec`` deterministically and write it to ``path``."""
    Path(path).write_text(render_spec(spec), encoding="utf-8")


def load_spec(path: Path, name: str = "WIRE_SPEC") -> dict | None:
    """The spec dict, or ``None`` when missing/unreadable/not a dict."""
    try:
        source = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id == name:
                value = ast.literal_eval(node.value)
                return value if isinstance(value, dict) else None
    except (OSError, SyntaxError, ValueError):
        return None
    return None
