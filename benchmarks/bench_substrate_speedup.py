"""Tree substrate speedup — presorted growth + flat prediction vs. seed.

Measures the optimized tree substrate (presorted split search, compiled
flat-array prediction, fold hoisting and fit memoization in grid search)
against reference implementations of the seed algorithms
(:mod:`benchmarks.substrate_reference`), on five scenarios:

* ``tree_fit`` — growing a single deep decision tree,
* ``boosting_fit`` — gradient boosting, whose residual trees grow on the
  presorted engine under the variance criterion,
* ``jungle_fit`` — a decision jungle, whose level nodes take their
  sorted lists from one presort per DAG,
* ``forest_predict`` — random-forest ``predict_proba`` on a wide batch,
* ``grid_sweep`` — the tree-heavy hyper-parameter sweep the paper's
  methodology runs per dataset: grid search over a
  (SelectKBest -> DecisionTree) pipeline.

Every scenario asserts the optimized path produces **bit-identical**
predictions before timing counts; speed without equality is a bug, not
a result.  Timings, speedups and the host (cores, Python, numpy) are
written to ``BENCH_substrate.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_substrate_speedup.py [--quick]
        [--output BENCH_substrate.json]

or via pytest (quick mode) as part of the bench suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.substrate_reference import (
        ReferenceDecisionJungle,
        ReferenceDecisionTree,
        ReferenceGradientBoosting,
        ReferenceRandomForest,
        reference_grid_search,
    )
except ImportError:  # running as a script: benchmarks/ itself is sys.path[0]
    from substrate_reference import (
        ReferenceDecisionJungle,
        ReferenceDecisionTree,
        ReferenceGradientBoosting,
        ReferenceRandomForest,
        reference_grid_search,
    )

from repro.learn import (
    DecisionJungleClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    GridSearchCV,
    Pipeline,
    RandomForestClassifier,
)
from repro.learn.feature_selection import SelectKBest
from repro.learn.metrics import accuracy_score

#: Acceptance floor for the tree-heavy sweep in full mode (quick CI runs
#: use a softer floor because tiny problems amortize less sorting work).
FULL_SWEEP_FLOOR = 3.0
QUICK_SWEEP_FLOOR = 1.2

#: ``predict_rows`` is sized like the measurement methodology's test
#: partitions (the 30% side of the paper's 70/30 splits) — the batch
#: size every sweep actually predicts on.
SIZES = {
    "quick": {"n_samples": 400, "n_features": 12, "tree_depth": 10,
              "n_trees": 15, "predict_rows": 120, "grid_depths": [3, 6, 9],
              "grid_ks": [6, 12], "cv": 3, "boost_rounds": 10,
              "jungle_dags": 4, "repeats": 1},
    "full": {"n_samples": 2000, "n_features": 24, "tree_depth": 14,
             "n_trees": 40, "predict_rows": 600, "grid_depths": [4, 8, 12, 16],
             "grid_ks": [8, 16, 24], "cv": 5, "boost_rounds": 50,
             "jungle_dags": 8, "repeats": 3},
}


def make_dataset(n_samples: int, n_features: int, seed: int = 0):
    """Synthetic binary task with informative and noise features."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    logits = X[:, 0] + 0.7 * X[:, 1] - 0.5 * X[:, 2] * X[:, 3]
    y = (logits + 0.3 * rng.normal(size=n_samples) > 0).astype(int)
    return X, y


def _best_time(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def scenario_tree_fit(size: dict) -> dict:
    """Grow one deep tree: per-node re-sort (seed) vs presort/partition."""
    X, y = make_dataset(size["n_samples"], size["n_features"], seed=1)
    depth = size["tree_depth"]

    baseline = ReferenceDecisionTree(max_depth=depth, random_state=0)
    optimized = DecisionTreeClassifier(max_depth=depth, random_state=0)
    t_base = _best_time(lambda: baseline.fit(X, y), size["repeats"])
    t_opt = _best_time(lambda: optimized.fit(X, y), size["repeats"])

    identical = bool(
        np.array_equal(baseline.predict_proba(X), optimized.predict_proba(X))
    )
    assert identical, "presorted tree predictions diverged from seed"
    return {"baseline_s": t_base, "optimized_s": t_opt,
            "speedup": t_base / t_opt, "bit_identical": identical}


def _fit_scenario(size: dict, seed: int, baseline, optimized) -> dict:
    """Time two fits of one estimator pair; their outputs must match bytes."""
    X, y = make_dataset(size["n_samples"], size["n_features"], seed=seed)
    X_query = make_dataset(size["predict_rows"], size["n_features"],
                           seed=seed + 100)[0]
    baseline.fit(X, y)
    optimized.fit(X, y)
    identical = bool(
        baseline.predict_proba(X_query).tobytes()
        == optimized.predict_proba(X_query).tobytes()
    )
    assert identical, f"{type(optimized).__name__} diverged from seed"
    t_base = _best_time(lambda: baseline.fit(X, y), size["repeats"])
    t_opt = _best_time(lambda: optimized.fit(X, y), size["repeats"])
    return {"baseline_s": t_base, "optimized_s": t_opt,
            "speedup": t_base / t_opt, "bit_identical": identical}


def scenario_boosting_fit(size: dict) -> dict:
    """Gradient boosting: per-node re-sorted variance search vs presort."""
    kwargs = dict(n_estimators=size["boost_rounds"], max_depth=3,
                  subsample=0.8, random_state=0)
    return _fit_scenario(size, 5, ReferenceGradientBoosting(**kwargs),
                         GradientBoostingClassifier(**kwargs))


def scenario_jungle_fit(size: dict) -> dict:
    """Decision jungle: per-node re-sort vs one presort per DAG."""
    kwargs = dict(n_dags=size["jungle_dags"], random_state=0)
    return _fit_scenario(size, 6, ReferenceDecisionJungle(**kwargs),
                         DecisionJungleClassifier(**kwargs))


def scenario_forest_predict(size: dict) -> dict:
    """Forest predict_proba: per-tree Python loop vs stacked flat arrays."""
    X, y = make_dataset(size["n_samples"], size["n_features"], seed=2)
    X_wide = make_dataset(size["predict_rows"], size["n_features"], seed=3)[0]

    baseline = ReferenceRandomForest(
        n_estimators=size["n_trees"], max_depth=size["tree_depth"],
        random_state=0,
    ).fit(X, y)
    optimized = RandomForestClassifier(
        n_estimators=size["n_trees"], max_depth=size["tree_depth"],
        random_state=0,
    ).fit(X, y)

    p_base = baseline.predict_proba(X_wide)
    p_opt = optimized.predict_proba(X_wide)
    identical = bool(np.array_equal(p_base, p_opt))
    assert identical, "flat-forest predictions diverged from seed"

    t_base = _best_time(lambda: baseline.predict_proba(X_wide),
                        size["repeats"])
    t_opt = _best_time(lambda: optimized.predict_proba(X_wide),
                       size["repeats"])
    return {"baseline_s": t_base, "optimized_s": t_opt,
            "speedup": t_base / t_opt, "bit_identical": identical}


def scenario_grid_sweep(size: dict) -> dict:
    """Tree-heavy sweep: seed grid loop vs hoisted-fold memoizing search."""
    X, y = make_dataset(size["n_samples"], size["n_features"], seed=4)
    grid = {"select__k": size["grid_ks"],
            "tree__max_depth": size["grid_depths"]}

    def baseline():
        pipeline = Pipeline([
            ("select", SelectKBest(k=size["grid_ks"][0])),
            ("tree", ReferenceDecisionTree(random_state=0)),
        ])
        return reference_grid_search(
            pipeline, grid, X, y, cv=size["cv"], random_state=0,
            scoring=accuracy_score,
        )

    def optimized():
        pipeline = Pipeline([
            ("select", SelectKBest(k=size["grid_ks"][0])),
            ("tree", DecisionTreeClassifier(random_state=0)),
        ])
        search = GridSearchCV(pipeline, grid, cv=size["cv"],
                              scoring=accuracy_score, random_state=0)
        return search.fit(X, y)

    t_base = _best_time(baseline, size["repeats"])
    t_opt = _best_time(optimized, size["repeats"])

    _, best_params_base, best_score_base = baseline()
    search = optimized()
    identical = (
        search.best_params_ == best_params_base
        and search.best_score_ == best_score_base
    )
    assert identical, "memoizing grid search selected a different model"
    return {"baseline_s": t_base, "optimized_s": t_opt,
            "speedup": t_base / t_opt, "bit_identical": bool(identical),
            "best_params": search.best_params_,
            "best_score": search.best_score_}


SCENARIOS = {
    "tree_fit": scenario_tree_fit,
    "boosting_fit": scenario_boosting_fit,
    "jungle_fit": scenario_jungle_fit,
    "forest_predict": scenario_forest_predict,
    "grid_sweep": scenario_grid_sweep,
}


def run_bench(mode: str = "quick") -> dict:
    """Run every scenario at ``mode`` scale; return the report dict."""
    size = SIZES[mode]
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}
    report = {"mode": mode, "host": host, "sizes": size, "scenarios": {}}
    for name, scenario in SCENARIOS.items():
        report["scenarios"][name] = scenario(size)
    floor = FULL_SWEEP_FLOOR if mode == "full" else QUICK_SWEEP_FLOOR
    report["sweep_speedup_floor"] = floor
    return report


def print_report(report: dict) -> None:
    """Print the scenario table the JSON report serializes."""
    print()
    print("=" * 72)
    print(f"Tree substrate speedup over seed implementation "
          f"({report['mode']} mode)")
    print("=" * 72)
    print(f"{'scenario':<16} {'seed (s)':>10} {'optimized (s)':>14} "
          f"{'speedup':>9}  identical")
    for name, result in report["scenarios"].items():
        print(f"{name:<16} {result['baseline_s']:>10.3f} "
              f"{result['optimized_s']:>14.3f} {result['speedup']:>8.2f}x  "
              f"{result['bit_identical']}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes (CI smoke run)")
    parser.add_argument("--output", default="BENCH_substrate.json",
                        help="path for the JSON report")
    options = parser.parse_args(argv)

    mode = "quick" if options.quick else "full"
    report = run_bench(mode)
    print_report(report)

    sweep_speedup = report["scenarios"]["grid_sweep"]["speedup"]
    floor = report["sweep_speedup_floor"]
    Path(options.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {options.output}")
    if sweep_speedup < floor:
        print(f"FAIL: grid_sweep speedup {sweep_speedup:.2f}x "
              f"below the {floor:.1f}x floor")
        return 1
    return 0


def test_substrate_speedup():
    """Quick-mode bench: bit-identical predictions and a real speedup."""
    report = run_bench("quick")
    print_report(report)
    for name, result in report["scenarios"].items():
        assert result["bit_identical"], name
        assert result["speedup"] > 0
    assert (report["scenarios"]["grid_sweep"]["speedup"]
            >= QUICK_SWEEP_FLOOR)


if __name__ == "__main__":
    raise SystemExit(main())
