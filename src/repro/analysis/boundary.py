"""Decision-boundary probing of black-box platforms (§6.1, Figs 10 & 13).

The paper visualizes a platform's decision boundary "by querying and
plotting the predicted classes of a 100x100 mesh grid" over the feature
range of a 2-feature dataset.  This module performs that probe through
the platform's public batch-prediction API and quantifies the boundary's
*linearity* so tests and benches can assert what the paper eyeballs: a
straight line on LINEAR, a closed curve on CIRCLE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.linear import LogisticRegression
from repro.platforms.base import MLaaSPlatform

__all__ = ["BoundaryProbe", "probe_decision_boundary", "boundary_linearity"]


@dataclass(frozen=True)
class BoundaryProbe:
    """A mesh-grid probe of one model's decision surface."""

    xx: np.ndarray          # (resolution, resolution) feature-1 grid
    yy: np.ndarray          # (resolution, resolution) feature-2 grid
    predictions: np.ndarray  # (resolution, resolution) predicted labels

    def positive_fraction(self) -> float:
        """Fraction of the mesh predicted as the reference class."""
        classes = np.unique(self.predictions)
        return float(np.mean(self.predictions == classes[-1]))

    def render_ascii(self, width: int = 40) -> str:
        """Coarse ASCII rendering of the boundary (for reports/logs)."""
        step = max(1, self.predictions.shape[0] // width)
        rows = []
        classes = np.unique(self.predictions)
        for i in range(0, self.predictions.shape[0], step):
            row = "".join(
                "#" if value == classes[-1] else "."
                for value in self.predictions[i, ::step]
            )
            rows.append(row)
        return "\n".join(reversed(rows))


def probe_decision_boundary(
    platform: MLaaSPlatform,
    X_train: np.ndarray,
    y_train: np.ndarray,
    resolution: int = 100,
    margin: float = 0.5,
) -> BoundaryProbe:
    """Train a default (baseline) model and probe its decision surface.

    Matches the paper's method: train through the service API on a
    2-feature dataset, then batch-predict a ``resolution x resolution``
    mesh spanning the data range.
    """
    X_train = np.asarray(X_train, dtype=float)
    if X_train.ndim != 2 or X_train.shape[1] != 2:
        raise ValidationError(
            "boundary probing requires a 2-feature dataset "
            f"(got shape {X_train.shape})"
        )
    x_low, x_high = X_train[:, 0].min() - margin, X_train[:, 0].max() + margin
    y_low, y_high = X_train[:, 1].min() - margin, X_train[:, 1].max() + margin
    xx, yy = np.meshgrid(
        np.linspace(x_low, x_high, resolution),
        np.linspace(y_low, y_high, resolution),
    )
    mesh = np.column_stack([xx.ravel(), yy.ravel()])
    dataset_id = platform.upload_dataset(X_train, y_train, name="boundary-probe")
    try:
        model_id = platform.create_model(dataset_id)
        predictions = platform.batch_predict(model_id, mesh).reshape(xx.shape)
    finally:
        platform.delete_dataset(dataset_id)
    return BoundaryProbe(xx=xx, yy=yy, predictions=predictions)


def boundary_linearity(probe: BoundaryProbe) -> float:
    """Score in [0, 1]: how well a straight line explains the boundary.

    Fits a linear separator to the probe's mesh predictions; the score is
    its accuracy in reproducing them.  A linear model's own boundary
    scores ~1.0, CIRCLE-style closed boundaries score much lower (a line
    can label at most ~max(p, 1-p) of the mesh correctly plus a margin).
    """
    labels = probe.predictions.ravel()
    classes = np.unique(labels)
    if classes.size < 2:
        return 1.0  # degenerate: one class everywhere is trivially linear
    mesh = np.column_stack([probe.xx.ravel(), probe.yy.ravel()])
    y01 = (labels == classes[-1]).astype(int)
    surrogate = LogisticRegression(
        penalty="none", solver="lbfgs", max_iter=300
    )
    surrogate.fit(mesh, y01)
    agreement = float(np.mean(surrogate.predict(mesh) == y01))
    return agreement
