"""Shared fixtures: small deterministic datasets used across the suite,
and one whole-tree analyzer run shared by the dogfood gates."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.datasets.synthetic import make_circles, make_classification


@pytest.fixture(scope="session")
def linear_data():
    """A clean, linearly separable binary problem (train/test)."""
    X, y = make_classification(
        n_samples=240, n_features=5, class_sep=4.5, flip_y=0.0, random_state=11
    )
    return X[:180], y[:180], X[180:], y[180:]


@pytest.fixture(scope="session")
def noisy_linear_data():
    """A noisy linear problem — exercises non-separable code paths."""
    X, y = make_classification(
        n_samples=240, n_features=5, class_sep=1.0, flip_y=0.1, random_state=13
    )
    return X[:180], y[:180], X[180:], y[180:]


@pytest.fixture(scope="session")
def circles_data():
    """The CIRCLE-style non-linear problem."""
    X, y = make_circles(n_samples=240, noise=0.08, random_state=17)
    return X[:180], y[:180], X[180:], y[180:]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def source_tree():
    """The repro package analyzed once by the whole suite.

    The six dogfood gates (``tests/test_*_clean.py``) share this one
    ``run_check`` instead of re-analyzing the tree per analyzer.
    ``loaded`` is the shared index entry the run used, so the gates'
    "the analyzer still sees ..." guards read the same memoized models.
    """
    from types import SimpleNamespace

    import repro
    from repro.tools.check import run_check
    from repro.tools.flow.runner import detect_context_paths
    from repro.tools.indexing import load_indexed_project

    root = Path(repro.__file__).resolve().parent
    report = run_check([root])
    loaded = load_indexed_project([root],
                                  context_paths=detect_context_paths([root]))
    return SimpleNamespace(root=root, report=report, loaded=loaded)
