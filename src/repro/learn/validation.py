"""Input validation helpers used across :mod:`repro.learn`."""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import check_is_fitted

__all__ = ["DEFAULT_SEED", "UNSEEDED", "check_array", "check_X_y",
           "check_random_state", "column_or_1d", "check_binary_labels",
           "check_n_features", "check_predict_input"]

#: Seed used when ``random_state`` is omitted (``None``).  An omitted
#: seed must never make a measurement silently irreproducible (§3.2's
#: protocol is seed-chained end to end), so ``None`` now means "the
#: documented default seed", not "fresh OS entropy".
DEFAULT_SEED = 0


class _UnseededSentinel:
    """Type of :data:`UNSEEDED`; never instantiated elsewhere.

    The sentinel is recognized by identity (``random_state is
    UNSEEDED``), so copying — which :func:`repro.learn.base.clone` does
    to every parameter — must return the singleton, not a lookalike.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "repro.learn.validation.UNSEEDED"

    def __copy__(self) -> "_UnseededSentinel":
        return self

    def __deepcopy__(self, memo) -> "_UnseededSentinel":
        return self

    def __reduce__(self):
        return (_unseeded_singleton, ())


def _unseeded_singleton() -> "_UnseededSentinel":
    """Unpickling hook keeping :data:`UNSEEDED` a process-wide singleton."""
    return UNSEEDED


#: Explicit opt-in to a nondeterministic generator.  Passing this as
#: ``random_state`` is the only supported way to get OS-entropy
#: randomness, which keeps every unseeded RNG grep-able and auditable
#: (lint rule R001 forbids bare ``np.random.default_rng()``).
UNSEEDED = _UnseededSentinel()


def check_array(
    X,
    *,
    ensure_2d: bool = True,
    allow_nan: bool = False,
    min_samples: int = 1,
    dtype=np.float64,
) -> np.ndarray:
    """Validate and convert ``X`` to a numeric ndarray.

    Parameters
    ----------
    X : array-like
        Input data.
    ensure_2d : bool
        Require a 2-D matrix (n_samples, n_features).
    allow_nan : bool
        Permit NaN entries (used by the imputer, which exists to remove
        them; everything else rejects NaN).
    min_samples : int
        Minimum number of rows.
    dtype : numpy dtype
        Target dtype of the returned array.
    """
    try:
        X = np.asarray(X, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"could not convert input to {dtype}: {exc}") from exc
    if ensure_2d:
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValidationError(f"expected 2-D array, got shape {X.shape}")
        if X.shape[1] == 0:
            raise ValidationError("input has 0 features")
    if X.shape[0] < min_samples:
        raise ValidationError(
            f"at least {min_samples} samples required, got {X.shape[0]}"
        )
    if not allow_nan and X.dtype.kind == "f":
        if not np.isfinite(X).all():
            raise ValidationError(
                "input contains NaN or infinity; impute or clean it first "
                "(see repro.learn.preprocessing.MedianImputer)"
            )
    return X


def check_n_features(estimator, X: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless ``X`` is as wide as the fit data."""
    if X.shape[1] != estimator.n_features_in_:
        raise ValidationError(
            f"{type(estimator).__name__} was fitted on "
            f"{estimator.n_features_in_} features, got {X.shape[1]}"
        )


def check_predict_input(estimator, X, fitted_attribute: str) -> np.ndarray:
    """Validate ``X`` before a fitted estimator predicts on or transforms it.

    The one gate every prediction path goes through: an unfitted
    ``estimator`` (no ``fitted_attribute``) raises
    :class:`~repro.exceptions.NotFittedError`, ``X`` is converted by
    :func:`check_array`, and a width other than ``n_features_in_``
    raises :class:`ValidationError`.
    """
    check_is_fitted(estimator, fitted_attribute)
    X = check_array(X)
    check_n_features(estimator, X)
    return X


def column_or_1d(y) -> np.ndarray:
    """Flatten a column vector to 1-D; reject higher-dimensional labels."""
    y = np.asarray(y)
    if y.ndim == 2 and y.shape[1] == 1:
        y = y.ravel()
    if y.ndim != 1:
        raise ValidationError(f"expected 1-D label array, got shape {y.shape}")
    return y


def check_X_y(
    X,
    y,
    *,
    allow_nan: bool = False,
    min_samples: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (data, labels) pair and check consistent lengths."""
    X = check_array(X, allow_nan=allow_nan, min_samples=min_samples)
    y = column_or_1d(y)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]}"
        )
    return X, y


def check_binary_labels(y: np.ndarray) -> np.ndarray:
    """Return sorted class values, requiring exactly two distinct classes."""
    classes = np.unique(y)
    if classes.shape[0] != 2:
        raise ValidationError(
            f"binary classification requires exactly 2 classes, "
            f"got {classes.shape[0]}: {classes[:10]}"
        )
    return classes


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (deterministic generator seeded with
    :data:`DEFAULT_SEED`, so omitting a seed can never silently make a
    sweep irreproducible), an integer seed, an existing Generator
    (returned as-is so state is shared), or the :data:`UNSEEDED`
    sentinel — the explicit, documented opt-in to OS-entropy
    nondeterminism.
    """
    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if seed is UNSEEDED:
        # The one sanctioned escape hatch from the seed chain; every
        # caller must opt in by name so unseeded paths stay grep-able.
        return np.random.default_rng()  # repro: disable=R001 -- UNSEEDED sentinel is the audited opt-in to OS entropy
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, numbers.Integral):
        return np.random.default_rng(int(seed))
    raise ValidationError(
        f"random_state must be None, UNSEEDED, an int, or a numpy "
        f"Generator; got {type(seed).__name__}"
    )
