"""Pipeline composing transformers with a final classifier.

The platform simulators assemble (feature selection -> classifier)
pipelines exactly the way Figure 1 of the paper draws the ML pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin, check_is_fitted, clone

__all__ = ["Pipeline"]


class Pipeline(BaseEstimator, ClassifierMixin):
    """Chain of named (transformer..., classifier) steps.

    Parameters
    ----------
    steps : list of (name, estimator)
        All but the last must be transformers (have ``transform``); the
        last must be a classifier (have ``predict``).
    memory : FitCache or None
        Optional :class:`repro.learn.cache.FitCache` memoizing the
        transformer stages by content.  Pipelines sharing one cache
        (e.g. grid-search candidates differing only in classifier
        parameters) fit each distinct transformer stage once per
        distinct input; results are bit-identical to fitting uncached.
    """

    def __init__(self, steps: list, memory=None):
        self.steps = steps
        self.memory = memory

    def set_params(self, **params) -> "Pipeline":
        """Set pipeline parameters, routing ``<step>__<param>`` to steps.

        Plain names (``steps``, ``memory``) behave as on any estimator;
        double-underscore names are forwarded to the named step so grid
        search can sweep e.g. ``classifier__max_depth`` over a pipeline.
        """
        nested: dict[str, dict] = {}
        direct = {}
        for name, value in params.items():
            if "__" in name:
                prefix, _, key = name.partition("__")
                nested.setdefault(prefix, {})[key] = value
            else:
                direct[name] = value
        super().set_params(**direct)
        if nested:
            step_map = dict(self.steps)
            for prefix, sub_params in nested.items():
                if prefix not in step_map:
                    raise ValueError(
                        f"Invalid parameter prefix {prefix!r} for Pipeline; "
                        f"step names are {sorted(step_map)}"
                    )
                step_map[prefix].set_params(**sub_params)
        return self

    def _validate(self) -> None:
        if not self.steps:
            raise ValidationError("Pipeline needs at least one step")
        names = [name for name, _ in self.steps]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate step names: {names}")
        for name, step in self.steps[:-1]:
            if not hasattr(step, "transform"):
                raise ValidationError(
                    f"intermediate step {name!r} must be a transformer"
                )
        if not hasattr(self.steps[-1][1], "predict"):
            raise ValidationError("final pipeline step must be a classifier")

    def fit(self, X, y) -> "Pipeline":
        self._validate()
        self.fitted_steps_ = []
        data = X
        for name, step in self.steps[:-1]:
            if self.memory is not None:
                fitted, data = self.memory.fit_transform(step, data, y)
            else:
                fitted = clone(step)
                data = fitted.fit(data, y).transform(data)
            self.fitted_steps_.append((name, fitted))
        final_name, final_step = self.steps[-1]
        fitted_final = clone(final_step)
        fitted_final.fit(data, y)
        self.fitted_steps_.append((final_name, fitted_final))
        self.classes_ = getattr(fitted_final, "classes_", None)
        return self

    def _transform(self, X) -> np.ndarray:
        check_is_fitted(self, "fitted_steps_")
        data = X
        for _, step in self.fitted_steps_[:-1]:
            data = step.transform(data)
        return data

    @property
    def final_estimator_(self):
        """The fitted classifier at the end of the pipeline."""
        check_is_fitted(self, "fitted_steps_")
        return self.fitted_steps_[-1][1]

    def predict(self, X) -> np.ndarray:
        return self.final_estimator_.predict(self._transform(X))

    def predict_proba(self, X) -> np.ndarray:
        final = self.final_estimator_
        if not hasattr(final, "predict_proba"):
            raise ValidationError(
                f"{type(final).__name__} does not provide predict_proba"
            )
        return final.predict_proba(self._transform(X))
