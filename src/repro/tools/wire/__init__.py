"""The wire analyzer — static wire-contract, error-taxonomy & resource
analysis.

The paper's methodology exercises MLaaS platforms through their
service APIs, and the serving layer reproduces that client/server
boundary with a bit-identical-results guarantee enforced dynamically
by loopback tests.  This package is the sixth static-analysis pass
("W-rules") that proves the boundary's *contract* statically, the way
R003/P305/S405 pin Table 1, complexity, and array contracts to
checked-in specs.  It extends the shared flow index with a **wire
model** (:mod:`repro.tools.wire.wiremodel`) — the route table derived
symbolically from the server's routing conditionals, the client's
expectations per public method, the ``ERROR_STATUS``/``KIND_TO_ERROR``
taxonomy with every raise/construction site, unprotected resource
acquisitions, unsafe JSON encode sites (reusing the shape analyzer's
dtype lattice), and blocking calls in the gateway's call closure — and
runs six rules over it:

* **W501 wire-contract** — derived routes and client expectations must
  agree with each other and with the checked-in ``wire_spec.py``
  (refresh with ``repro check --update-spec wire``);
* **W502 error-taxonomy** — every raised ``ReproError`` kind maps
  through the taxonomy back to the same class; unmapped raises, dead
  mappings, broken round-trips and spec drift are flagged;
* **W503 resource-lifecycle** — sockets/servers/executors/started
  threads/files acquired without context-manager or try/finally
  protection on exception paths;
* **W504 json-wire-safety** — object-dtype arrays, numpy scalars, sets
  and non-finite floats reaching a protocol encode site;
* **W505 blocking-handler** — indefinitely blocking calls reachable
  from a gateway handler, which escape the soft-timeout middleware;
* **W506 metrics-spec** — ``/metrics/summary`` operation names, sample
  prefix and document keys vs the spec's metrics section.

Importable API::

    from repro.tools.check import run_analyzer
    result = run_analyzer("wire", ["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro check --tools wire [PATHS...] [--format text|json]
    repro check --update-spec wire

Suppressions share the lint engine's comment syntax — a justified
suppression states the lifecycle or contract fact the analyzer cannot
see::

    conn = pool.lease()  # repro: disable=W503 -- pool closes its leases

The analysis reuses the lint engine (files parsed once, same reporters
and exit codes) and the flow package's shared indexes through the
memoized :mod:`repro.tools.indexing` facade, so all six analyzers in
one process parse the project once; the wire model itself is memoized
on the shared index entry and consumes the shape model, so one wire
run warms both.
"""

from __future__ import annotations

from repro.tools.wire.rules import default_wire_rules
from repro.tools.wire.wiremodel import WireModel, build_wire_model

__all__ = [
    "WireModel",
    "build_wire_model",
    "default_wire_rules",
]
