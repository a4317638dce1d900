"""Experiment runner driving platform service APIs.

For each (platform, dataset, configuration) the runner performs exactly
the measurement sequence of the paper's scripts: upload the training
split, request a model with the configuration's controls, wait for the
job, run a batch prediction on the held-out test split, and score it
(§3.2).  Failed jobs are recorded as failed measurements rather than
aborting the sweep — as with a real service, some configurations simply
do not train on some datasets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.controls import Configuration
from repro.core.results import ExperimentResult, ResultStore
from repro.datasets.corpus import Dataset, SplitDataset
from repro.exceptions import PlatformError
from repro.learn.metrics import MetricSummary, classification_summary
from repro.platforms.base import JobState, MLaaSPlatform

__all__ = ["ExperimentRunner"]

_FAILED_METRICS = MetricSummary(f_score=0.0, accuracy=0.0, precision=0.0, recall=0.0)


class ExperimentRunner:
    """Stateless executor of measurements against platform instances.

    Parameters
    ----------
    test_size : float
        Held-out fraction (paper: 0.3).
    split_seed : int
        Seed of the per-dataset train/test split.  The same split is used
        for every platform and configuration, matching the paper ("We
        train classifiers on each MLaaS platform using the same training
        and held-out test set").
    """

    def __init__(self, test_size: float = 0.3, split_seed: int = 7):
        self.test_size = test_size
        self.split_seed = split_seed
        self._split_cache: dict[str, SplitDataset] = {}

    def split(self, dataset: Dataset) -> SplitDataset:
        """The canonical 70/30 split for a dataset (cached)."""
        cached = self._split_cache.get(dataset.name)
        if cached is None:
            cached = dataset.split(
                test_size=self.test_size, random_state=self.split_seed
            )
            self._split_cache[dataset.name] = cached
        return cached

    def run_one(
        self,
        platform: MLaaSPlatform,
        dataset: Dataset,
        configuration: Configuration,
        split: SplitDataset | None = None,
    ) -> ExperimentResult:
        """Run a single measurement and return its result record."""
        split = split or self.split(dataset)
        try:
            dataset_id = platform.upload_dataset(
                split.X_train, split.y_train, name=dataset.name
            )
            try:
                return self._measure(platform, dataset, configuration,
                                     split, dataset_id)
            finally:
                # Free server-side resources on every path, failed jobs
                # included, as a quota-conscious script would.
                platform.delete_dataset(dataset_id)
        except PlatformError as exc:
            return ExperimentResult(
                platform=platform.name,
                dataset=dataset.name,
                configuration=configuration,
                metrics=_FAILED_METRICS,
                status="failed",
                failure_reason=str(exc),
            )

    @staticmethod
    def _measure(platform, dataset, configuration, split,
                 dataset_id) -> ExperimentResult:
        """Train on an uploaded dataset, predict the test split, score."""
        model_id = platform.create_model(
            dataset_id,
            classifier=configuration.classifier,
            params=configuration.params_dict or None,
            feature_selection=configuration.feature_selection,
        )
        handle = platform.get_model(model_id)
        if handle.state is JobState.QUEUED:
            # An asynchronous platform only queued the job: poll it to a
            # terminal state, as the paper's scripts did.
            handle = platform.await_model(model_id)
        if handle.state is JobState.FAILED:
            return ExperimentResult(
                platform=platform.name,
                dataset=dataset.name,
                configuration=configuration,
                metrics=_FAILED_METRICS,
                status="failed",
                failure_reason=str(handle.failure_reason),
            )
        predictions = platform.batch_predict(model_id, split.X_test)
        metrics = classification_summary(split.y_test, predictions)
        metadata = dict(handle.metadata)
        metadata["n_predictions"] = int(len(predictions))
        return ExperimentResult(
            platform=platform.name,
            dataset=dataset.name,
            configuration=configuration,
            metrics=metrics,
            metadata=metadata,
        )

    def sweep(
        self,
        platform: MLaaSPlatform,
        datasets: Sequence[Dataset],
        configurations: Iterable[Configuration],
    ) -> ResultStore:
        """Run every configuration on every dataset, in order.

        The bare serial loop — the reference every campaign executor of
        :func:`repro.service.run_campaign` must reproduce bit for bit.
        Resume and checkpointing live in that driver.
        """
        store = ResultStore()
        configurations = list(configurations)
        for dataset in datasets:
            split = self.split(dataset)
            for configuration in configurations:
                store.add(self.run_one(platform, dataset, configuration, split))
        return store

    def predictions_for(
        self,
        platform: MLaaSPlatform,
        dataset: Dataset,
        configuration: Configuration,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (y_test, predictions) for one measurement.

        Used by the classifier-family inference analysis (§6.2), which
        needs the raw predicted labels rather than aggregate metrics.
        """
        split = self.split(dataset)
        dataset_id = platform.upload_dataset(
            split.X_train, split.y_train, name=dataset.name
        )
        try:
            model_id = platform.create_model(
                dataset_id,
                classifier=configuration.classifier,
                params=configuration.params_dict or None,
                feature_selection=configuration.feature_selection,
            )
            predictions = platform.batch_predict(model_id, split.X_test)
        finally:
            platform.delete_dataset(dataset_id)
        return split.y_test, predictions
