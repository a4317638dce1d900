"""Hot-path speedups driven by the perf analyzer's findings, vs. seed code.

Measures the vectorized replacements for the analyzer's confirmed
P301/P302-class hotspots against the seed implementations kept verbatim
in :mod:`benchmarks.perf_reference`, plus the P304 FitCache routing of
platform FEAT steps and the online linear learners' training loops, on
four scenarios:

* ``mutual_info`` — per-bin/per-class Python loops vs one ``bincount``,
* ``stratified_kfold`` — per-index fold assembly vs strided slices,
* ``feat_cache_sweep`` — a per-candidate FEAT refit vs the memoized
  fit the platforms now share through their ``FitCache``,
* ``online_learners`` — SGD logistic regression, Pegasos SVM, the Bayes
  point machine and the averaged perceptron, seed training loops vs the
  loops that make fewer numpy calls per step.

Every scenario asserts the optimized path produces **bit-identical**
outputs before timing counts; speed without equality is a bug, not a
result.  Seed and optimized code are timed in alternating pairs, and a
scenario's speedup is the median of its pair ratios (at least 5), so a
host that slows down between phases of the run does not fail it.
Timings, speedups, the pair ratios and the host (cores, Python, numpy,
scipy) are written to ``BENCH_perf.json``.

(A fourth candidate — vectorizing ``count_score`` with a whole-matrix
sort — measured ~2x *slower* than the seed's per-column ``np.unique``
loop at every scale, so the loop stays, with a documented P301
suppression recording the measurement.)

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hotspots.py [--quick]
        [--output BENCH_perf.json]

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
import scipy

try:
    from benchmarks.perf_reference import (
        ReferenceAveragedPerceptron,
        ReferenceBayesPointMachine,
        ReferenceLinearSVC,
        ReferenceLogisticRegression,
        ReferenceStratifiedKFold,
        reference_mutual_info_score,
    )
except ImportError:  # running as a script: benchmarks/ itself is sys.path[0]
    from perf_reference import (
        ReferenceAveragedPerceptron,
        ReferenceBayesPointMachine,
        ReferenceLinearSVC,
        ReferenceLogisticRegression,
        ReferenceStratifiedKFold,
        reference_mutual_info_score,
    )

from repro.learn.cache import FitCache
from repro.learn.feature_selection import SelectKBest
from repro.learn.feature_selection.filters import mutual_info_score
from repro.learn.linear import (
    AveragedPerceptron,
    BayesPointMachine,
    LinearSVC,
    LogisticRegression,
)
from repro.learn.model_selection import StratifiedKFold

SIZES = {
    "quick": {"n_samples": 2000, "n_features": 30, "n_splits": 5,
              "n_candidates": 6, "online_samples": 150,
              "online_features": 6, "pairs": 5},
    "full": {"n_samples": 20000, "n_features": 80, "n_splits": 10,
             "n_candidates": 12, "online_samples": 600,
             "online_features": 10, "pairs": 7},
}

#: (optimized, seed reference, parameters) per fit of the
#: ``online_learners`` scenario: the SGD solver over its penalties and
#: three values of C, both SVM losses, and the two Azure online learners.
ONLINE_FITS = [
    *[(LogisticRegression, ReferenceLogisticRegression,
       {"solver": "sgd", "penalty": penalty, "C": C})
      for penalty in ("l1", "l2", "none") for C in (0.1, 1.0, 10.0)],
    *[(LinearSVC, ReferenceLinearSVC, {"loss": loss, "max_iter": 20})
      for loss in ("hinge", "squared_hinge")],
    (BayesPointMachine, ReferenceBayesPointMachine, {"n_iter": 10}),
    (AveragedPerceptron, ReferenceAveragedPerceptron, {}),
]


def make_dataset(n_samples: int, n_features: int, seed: int = 0):
    """Synthetic binary task with a mix of continuous/discrete columns."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    X[:, ::3] = rng.integers(0, 12, size=X[:, ::3].shape)  # discrete cols
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_timing(baseline, optimized, pairs: int) -> dict:
    """Time ``baseline`` and ``optimized`` in alternating pairs.

    Each pair runs both back to back, the first of the two alternating
    from pair to pair, so host drift between phases of the run moves
    both sides of a pair alike.  The speedup is the median of the pair
    ratios (baseline over optimized); the times are each side's median.
    """
    ratios, base_times, opt_times = [], [], []
    for pair in range(pairs):
        if pair % 2:
            t_opt, t_base = _seconds(optimized), _seconds(baseline)
        else:
            t_base, t_opt = _seconds(baseline), _seconds(optimized)
        base_times.append(t_base)
        opt_times.append(t_opt)
        ratios.append(t_base / t_opt)
    return {"baseline_s": float(np.median(base_times)),
            "optimized_s": float(np.median(opt_times)),
            "speedup": float(np.median(ratios)),
            "pair_ratios": ratios}


def scenario_mutual_info(size: dict) -> dict:
    """MI after binning: bins x classes Python loops vs one bincount."""
    X, y = make_dataset(size["n_samples"], size["n_features"], seed=2)
    identical = bool(np.array_equal(mutual_info_score(X, y),
                                    reference_mutual_info_score(X, y)))
    assert identical, "vectorized mutual_info_score diverged from seed"
    timing = _paired_timing(lambda: reference_mutual_info_score(X, y),
                            lambda: mutual_info_score(X, y), size["pairs"])
    return {**timing, "bit_identical": identical}


def scenario_stratified_kfold(size: dict) -> dict:
    """Fold assembly: per-index Python lists vs strided slices."""
    X, y = make_dataset(size["n_samples"], 3, seed=3)
    splits = size["n_splits"]

    fast = list(StratifiedKFold(n_splits=splits,
                                random_state=0).split(X, y))
    ref = list(ReferenceStratifiedKFold(n_splits=splits,
                                        random_state=0).split(X, y))
    identical = len(fast) == len(ref) and all(
        np.array_equal(ft, rt) and np.array_equal(fe, re)
        for (ft, fe), (rt, re) in zip(fast, ref)
    )
    assert identical, "vectorized StratifiedKFold diverged from seed"

    timing = _paired_timing(
        lambda: list(ReferenceStratifiedKFold(
            n_splits=splits, random_state=0).split(X, y)),
        lambda: list(StratifiedKFold(
            n_splits=splits, random_state=0).split(X, y)),
        size["pairs"])
    return {**timing, "bit_identical": bool(identical)}


def scenario_feat_cache_sweep(size: dict) -> dict:
    """A parameter sweep's FEAT step: refit per candidate vs FitCache."""
    X, y = make_dataset(size["n_samples"], size["n_features"], seed=4)
    n_candidates = size["n_candidates"]

    def baseline():
        outputs = []
        for _ in range(n_candidates):
            step = SelectKBest(scorer="mutual_info", k=0.5)
            outputs.append(step.fit(X, y).transform(X))
        return outputs

    def optimized():
        cache = FitCache()
        outputs = []
        for _ in range(n_candidates):
            step = SelectKBest(scorer="mutual_info", k=0.5)
            _, transformed = cache.fit_transform(step, X, y)
            outputs.append(transformed)
        return outputs

    base_out = baseline()
    opt_out = optimized()
    identical = all(np.array_equal(b, o)
                    for b, o in zip(base_out, opt_out))
    assert identical, "cached FEAT transforms diverged from refits"

    timing = _paired_timing(baseline, optimized, size["pairs"])
    return {**timing, "bit_identical": bool(identical)}


def scenario_online_learners(size: dict) -> dict:
    """Online linear learners: seed training loops vs fewer numpy calls
    per step, over the fits of :data:`ONLINE_FITS`."""
    X, y = make_dataset(size["online_samples"], size["online_features"],
                        seed=5)
    # Label noise keeps every learner updating until its last epoch.
    y = y ^ (np.random.default_rng(6).random(y.shape[0]) < 0.15)

    def fit_all(reference: bool) -> list:
        return [(seed if reference else optimized)(random_state=0, **params)
                .fit(X, y) for optimized, seed, params in ONLINE_FITS]

    identical = all(
        fast.coef_.tobytes() == ref.coef_.tobytes()
        and fast.intercept_ == ref.intercept_
        and getattr(fast, "n_iter_", None) == getattr(ref, "n_iter_", None)
        for fast, ref in zip(fit_all(False), fit_all(True))
    )
    assert identical, "online learner training diverged from seed"

    timing = _paired_timing(lambda: fit_all(True), lambda: fit_all(False),
                            size["pairs"])
    return {**timing, "bit_identical": bool(identical)}


SCENARIOS = {
    "mutual_info": scenario_mutual_info,
    "stratified_kfold": scenario_stratified_kfold,
    "feat_cache_sweep": scenario_feat_cache_sweep,
    "online_learners": scenario_online_learners,
}


def run_bench(mode: str = "quick") -> dict:
    """Run every scenario at ``mode`` scale; return the report dict."""
    size = SIZES[mode]
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}
    report = {"mode": mode, "host": host, "sizes": size, "scenarios": {}}
    for name, scenario in SCENARIOS.items():
        report["scenarios"][name] = scenario(size)
    return report


def print_report(report: dict) -> None:
    """Print the scenario table the JSON report serializes."""
    print()
    print("=" * 72)
    print(f"Perf-analyzer hotspot speedups over seed implementation "
          f"({report['mode']} mode)")
    print("=" * 72)
    print(f"{'scenario':<18} {'seed (s)':>10} {'optimized (s)':>14} "
          f"{'speedup':>9}  identical")
    for name, result in report["scenarios"].items():
        print(f"{name:<18} {result['baseline_s']:>10.4f} "
              f"{result['optimized_s']:>14.4f} {result['speedup']:>8.2f}x  "
              f"{result['bit_identical']}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes (CI smoke run)")
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="path for the JSON report")
    options = parser.parse_args(argv)

    mode = "quick" if options.quick else "full"
    report = run_bench(mode)
    print_report(report)

    Path(options.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {options.output}")
    slow = [name for name, result in report["scenarios"].items()
            if result["speedup"] < 1.0]
    if slow:
        print(f"FAIL: scenarios slower than seed: {', '.join(slow)}")
        return 1
    return 0


def test_perf_hotspot_speedup():
    """Quick-mode bench: bit-identical outputs and a real speedup."""
    report = run_bench("quick")
    print_report(report)
    assert "online_learners" in report["scenarios"]
    for name, result in report["scenarios"].items():
        assert result["bit_identical"], name
        assert result["speedup"] > 0
    # The headline fixes must actually pay at bench scale.
    assert report["scenarios"]["mutual_info"]["speedup"] > 1.0
    assert report["scenarios"]["feat_cache_sweep"]["speedup"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
