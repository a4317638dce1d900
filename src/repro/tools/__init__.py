"""Developer tooling for the reproduction: six static analyzers.

``repro check`` (:mod:`repro.tools.check`) is their one front end and
registry; each analyzer package holds its rules and the model they read:

``repro.tools.lint``
    Per-file invariants: determinism, the estimator protocol, Table 1
    conformance, exception hygiene and export sync.

``repro.tools.flow``
    Project-wide data flow and architecture: layering DAG, leakage
    taint, seed flow, dead code, API drift.

``repro.tools.race``
    Concurrency and shared state: lock ordering, unguarded shared
    writes, check-then-act races, process-boundary captures, blocking
    under locks, shared RNGs.

``repro.tools.perf``
    Complexity and hot paths: axis loops, quadratic growth, invariant
    calls, uncached refits, complexity-spec conformance, hot-loop
    allocations.

``repro.tools.shape``
    Array shapes, dtypes and aliasing: shape algebra, dtype stability,
    alias mutation, substrate access, array-contract spec, boundary
    validation.

``repro.tools.wire``
    The serving boundary: wire contract, error taxonomy, resource
    lifecycles, JSON safety, blocking handlers, metrics spec.

``repro.tools.indexing``
    Memoized project loading shared by the analyzers, so one process
    running several of them parses and indexes the tree exactly once.

``repro.tools.exitcodes``
    The exit-code taxonomy (clean / findings / usage / crash).

The package imports none of them, so ``import repro.cli`` stays cheap.
"""

__all__ = []
