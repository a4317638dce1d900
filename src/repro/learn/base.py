"""Estimator protocol shared by every model in :mod:`repro.learn`.

The protocol deliberately mirrors scikit-learn's: estimators are configured
entirely through constructor keyword arguments, learn state in :meth:`fit`
(storing learned attributes with a trailing underscore), and are cloneable
into unfitted copies via :func:`clone`.  Grid search, pipelines, and the
MLaaS platform simulators all rely only on this protocol.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

from repro.exceptions import NotFittedError

__all__ = ["BaseEstimator", "ClassifierMixin", "TransformerMixin", "clone",
           "check_is_fitted", "sigmoid"]


class BaseEstimator:
    """Base class providing parameter introspection and cloning.

    Subclasses must accept all configuration as explicit keyword arguments
    in ``__init__`` and store each argument verbatim on an attribute of the
    same name.  That invariant is what makes :meth:`get_params` /
    :meth:`set_params` work without any per-class bookkeeping.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        """Return the sorted constructor parameter names for this class."""
        init = cls.__init__
        if init is object.__init__:
            return []
        signature = inspect.signature(init)
        names = [
            name
            for name, param in signature.parameters.items()
            if name != "self"
            and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        ]
        return sorted(names)

    def get_params(self) -> dict[str, Any]:
        """Return the estimator's constructor parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set constructor parameters on this estimator and return self."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"Invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Mixin adding the probability label rule and accuracy :meth:`score`."""

    _estimator_kind = "classifier"

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Label ``classes_[1]`` where ``predict_proba`` exceeds 0.5.

        Classifiers deciding on a score instead (linear, boosting, naive
        Bayes, one-vs-rest) override this with their own rule.
        """
        probabilities = self.predict_proba(X)
        return np.where(
            probabilities[:, 1] > 0.5, self.classes_[1], self.classes_[0]
        )

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Return mean accuracy of ``self.predict(X)`` against ``y``."""
        predictions = np.asarray(self.predict(X))
        return float(np.mean(predictions == np.asarray(y)))


class TransformerMixin:
    """Mixin adding :meth:`fit_transform` for transformers."""

    _estimator_kind = "transformer"

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Fit to ``X`` (optionally with labels ``y``) then transform it."""
        return self.fit(X, y).transform(X)


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return a new unfitted estimator with the same parameters.

    Parameter values are deep-copied so that mutable defaults (lists of
    layer sizes, nested estimators) are not shared between clones.  Nested
    estimators found among the parameters are themselves cloned.
    """
    params = estimator.get_params()
    cloned_params = {}
    for name, value in params.items():
        if isinstance(value, BaseEstimator):
            cloned_params[name] = clone(value)
        else:
            cloned_params[name] = copy.deepcopy(value)
    return type(estimator)(**cloned_params)


def check_is_fitted(estimator: Any, attribute: str = "classes_") -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has ``attribute``."""
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() before "
            f"using this method (missing attribute {attribute!r})"
        )


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-z))`` of an array.

    ``z`` is clipped to ``[-500, 500]`` first, so ``exp`` never
    overflows.  Each step writes into one buffer: ``out`` (which may be
    ``z`` itself) or a new array, so ``z`` is left alone by default.
    """
    out = np.maximum(z, -500.0, out=out)
    np.minimum(out, 500.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)
