"""Machine-readable architecture layering for F101 (the flow analyzer).

The reproduction's dependency DAG, lowest layer first::

    exceptions                                   (foundation)
        ^
    learn                                        (numeric substrate)
        ^
    datasets, platforms                          (corpus + simulated services)
        ^
    core, analysis, service                      (measurement harness)
        ^
    repro (facade), cli, tools, benchmarks, ...  (interface)

A module may import from its own layer or any layer **below** it; an
upward import inverts the architecture (e.g. an estimator reaching into
the measurement harness) and is reported as F101.  The spec mirrors the
``table1_spec`` pattern: this file is the single ground truth the
layering rule diffs the real import graph against, so an intentional
re-layering is a one-file change reviewed like any Table 1 edit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LAYERS", "Layer", "layer_of"]


@dataclass(frozen=True)
class Layer:
    """One architecture layer: a name and the package prefixes it owns."""

    name: str
    packages: tuple
    description: str


#: The dependency DAG, lowest (most-imported) layer first.
LAYERS = (
    Layer(
        name="foundation",
        packages=("repro.exceptions",),
        description="exception hierarchy; imports nothing from the project",
    ),
    Layer(
        name="learn",
        packages=("repro.learn",),
        description="from-scratch ML substrate (estimators, metrics, CV)",
    ),
    Layer(
        name="data-and-services",
        packages=("repro.datasets", "repro.platforms"),
        description="dataset corpus and simulated MLaaS platforms",
    ),
    Layer(
        name="measurement",
        packages=("repro.core", "repro.analysis", "repro.service",
                  "repro.serving"),
        description="study orchestration, runner, campaign service layer, "
                    "HTTP serving front-end, and analysis of results",
    ),
    Layer(
        name="interface",
        packages=("repro", "repro.cli", "repro.tools",
                  "benchmarks", "examples", "tests"),
        description="CLI, static-analysis tools (lint/flow/race/perf/"
                    "shape/wire + shared indexing + the combined check "
                    "driver), facade, benches, examples",
    ),
)


def layer_of(module_name: str) -> int | None:
    """Index into :data:`LAYERS` for a dotted module name (longest prefix).

    Returns ``None`` for modules outside every declared layer, which the
    layering rule treats as unconstrained.
    """
    best: tuple | None = None
    for position, layer in enumerate(LAYERS):
        for package in layer.packages:
            if module_name == package or module_name.startswith(package + "."):
                if best is None or len(package) > best[0]:
                    best = (len(package), position)
    return None if best is None else best[1]
