"""MLaaS platform service model.

Every simulated platform is a :class:`MLaaSPlatform`: a stateful service
holding datasets, training jobs and trained models as addressable
resources, exactly the shape of the web APIs the paper scripted against
(§3.2: "we leverage web APIs provided by the platforms").  Training is a
job with a QUEUED → RUNNING → COMPLETED/FAILED lifecycle, and predictions
are served in batches against a model resource.

A platform's measurable surface is its :class:`ControlSurface`: which of
the paper's three control dimensions (FEAT, CLF, PARA) it exposes, which
classifiers are offered, and each classifier's tunable parameters with
their platform defaults.  Table 1 of the paper is encoded verbatim in the
per-vendor modules.
"""

from __future__ import annotations

import itertools
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import (
    JobFailedError,
    QuotaExceededError,
    ReproError,
    ResourceNotFoundError,
    UnsupportedControlError,
    ValidationError,
)
from repro.learn.base import BaseEstimator
from repro.learn.cache import FitCache
from repro.learn.validation import check_array, check_X_y

__all__ = [
    "ParameterSpec",
    "ClassifierOption",
    "ControlSurface",
    "JobState",
    "ModelHandle",
    "MLaaSPlatform",
    "TrainingFailure",
]


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable parameter of a platform classifier.

    Attributes
    ----------
    name : str
        The parameter's name *as the platform spells it* (e.g. Amazon's
        ``regParam``), preserved so measurement scripts read like the
        paper's.
    default : object
        The platform's default value.
    values : tuple
        The grid scanned in experiments.  For numeric parameters this is
        the paper's ``D/100, D, 100*D`` scan; for categorical parameters,
        all options (§3.2).
    """

    name: str
    default: object
    values: tuple

    def __post_init__(self):
        if self.default not in self.values:
            raise ValidationError(
                f"default {self.default!r} for parameter {self.name!r} "
                f"must appear in its value grid {self.values!r}"
            )


@dataclass(frozen=True)
class ClassifierOption:
    """One classifier offered by a platform.

    Attributes
    ----------
    abbr : str
        Paper Table 4 abbreviation (LR, DT, RF, ...).
    label : str
        The platform's marketing name for the classifier.
    parameters : tuple of ParameterSpec
        Tunable parameters (Table 1).
    build : callable
        ``build(params: dict, random_state: int) -> estimator`` translating
        platform parameter names into a fitted-protocol estimator.
    """

    abbr: str
    label: str
    parameters: tuple
    build: Callable[[Mapping, int], BaseEstimator]

    def default_params(self) -> dict:
        """The platform's default value for every parameter."""
        return {p.name: p.default for p in self.parameters}

    def parameter_grid(self) -> list[dict]:
        """All parameter combinations scanned for this classifier."""
        if not self.parameters:
            return [{}]
        names = [p.name for p in self.parameters]
        combos = itertools.product(*(p.values for p in self.parameters))
        return [dict(zip(names, combo)) for combo in combos]

    def single_axis_grid(self) -> list[dict]:
        """Vary one parameter at a time around the defaults.

        This is how the paper counts its per-parameter measurements: each
        tuned parameter contributes its scan while others stay default.
        """
        grids = [self.default_params()]
        for spec in self.parameters:
            for value in spec.values:
                if value == spec.default:
                    continue
                params = self.default_params()
                params[spec.name] = value
                grids.append(params)
        return grids

    def validate_params(self, params: Mapping) -> dict:
        """Merge user params over defaults, rejecting unknown names."""
        known = {p.name for p in self.parameters}
        merged = self.default_params()
        for name, value in params.items():
            if name not in known:
                raise UnsupportedControlError(
                    f"classifier {self.label!r} has no parameter {name!r}; "
                    f"tunable parameters are {sorted(known)}"
                )
            merged[name] = value
        return merged


@dataclass(frozen=True)
class ControlSurface:
    """Which pipeline controls a platform exposes (paper Figure 1 row).

    Attributes
    ----------
    feature_selectors : tuple of str
        Names of supported feature-selection/preprocessing choices;
        empty when the platform has no FEAT control.
    classifiers : tuple of ClassifierOption
        Selectable classifiers; empty for black-box platforms.
    supports_parameter_tuning : bool
        Whether PARA is exposed.
    """

    feature_selectors: tuple = ()
    classifiers: tuple = ()
    supports_parameter_tuning: bool = False

    @property
    def exposed_dimensions(self) -> frozenset:
        dimensions = set()
        if self.feature_selectors:
            dimensions.add("FEAT")
        if self.classifiers:
            dimensions.add("CLF")
        if self.supports_parameter_tuning:
            dimensions.add("PARA")
        return frozenset(dimensions)

    def classifier(self, abbr: str) -> ClassifierOption:
        """Look up an offered classifier by abbreviation."""
        for option in self.classifiers:
            if option.abbr == abbr:
                return option
        available = [option.abbr for option in self.classifiers]
        raise UnsupportedControlError(
            f"classifier {abbr!r} is not offered; available: {available}"
        )


class JobState(str, Enum):
    """Lifecycle of a platform training job."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


@dataclass(frozen=True)
class TrainingFailure:
    """Structured record of why a training job failed.

    ``stage`` pins the lifecycle step that broke (``"queue"`` — the job
    never started, e.g. its dataset was deleted; ``"assemble"`` — the
    configuration could not be turned into an estimator; ``"fit"`` — the
    estimator rejected the data), ``kind`` is the exception class name,
    and ``detail`` the human-readable message.

    The record renders and substring-matches like the plain string it
    replaces, so clients that log or grep ``failure_reason`` keep
    working while analysis code can now group failures by stage/kind.
    """

    stage: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"

    def __contains__(self, fragment: str) -> bool:
        return fragment in str(self)

    def to_dict(self) -> dict:
        """JSON-serializable form, for result stores and reports."""
        return {"stage": self.stage, "kind": self.kind, "detail": self.detail}


@dataclass
class ModelHandle:
    """Server-side record of one trained (or failed) model."""

    model_id: str
    dataset_id: str
    state: JobState
    classifier_abbr: str | None = None
    params: dict = field(default_factory=dict)
    feature_selection: str | None = None
    estimator: BaseEstimator | None = None
    failure_reason: TrainingFailure | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class _StoredDataset:
    dataset_id: str
    name: str
    X: np.ndarray
    y: np.ndarray


class MLaaSPlatform:
    """Base class for all simulated MLaaS services.

    Subclasses define ``name``, ``complexity`` (the paper's low→high
    ordering used on every figure's x-axis) and ``controls``, and override
    :meth:`_assemble` to turn a validated configuration into an estimator.

    The public API is resource-oriented:

    >>> platform = Microsoft()
    >>> ds = platform.upload_dataset(X_train, y_train, name="example")
    >>> model = platform.create_model(ds, classifier="BST")
    >>> predictions = platform.batch_predict(model, X_test)
    """

    #: Platform display name.
    name: str = "abstract"
    #: Position on the paper's complexity axis (0 = least control).
    complexity: int = 0
    #: Control surface (overridden per vendor).
    controls: ControlSurface = ControlSurface()
    #: Maximum dataset size accepted by upload (simulated service quota).
    max_upload_samples: int = 1_000_000

    def __init__(
        self,
        random_state: int = 0,
        synchronous: bool = True,
        rate_limit_per_minute: int | None = None,
        clock=None,
        fit_cache: FitCache | None = None,
    ):
        self.random_state = random_state
        #: When False, ``create_model`` only enqueues the job (QUEUED) and
        #: training happens on ``process_one_job``/``await_model`` — the
        #: poll-based shape of the real web APIs the paper scripted.
        self.synchronous = synchronous
        #: Optional API quota: requests allowed per rolling minute.
        #: Mutations *and* polls count — real APIs meter status checks
        #: too.  The paper excluded some vendors for "posing strict
        #: rate limit" (§8); enabling this reproduces that obstacle.
        self.rate_limit_per_minute = rate_limit_per_minute
        #: Injectable time source (seconds); monotonic clock by default.
        self._clock = clock if clock is not None else time.monotonic
        self._request_times: list[float] = []
        self._datasets: dict[str, _StoredDataset] = {}
        self._models: dict[str, ModelHandle] = {}
        self._job_queue: deque[str] = deque()
        self._counter = itertools.count(1)
        #: Content-keyed memo for pure pipeline-stage fits: a parameter
        #: sweep over one dataset re-fits the classifier per job but the
        #: shared feature-selection step only once (vendors pass this to
        #: their ``_assemble`` pipelines).  An externally supplied cache
        #: (campaign shards share one across every platform they drive)
        #: is never cleared by the platform — its owner decides when
        #: entries die — while a platform-owned cache is emptied when
        #: the last dataset is deleted.  Keys are content-derived, so
        #: sharing a cache across platforms can only replay fits that
        #: are bit-identical to recomputing them.
        self._owns_fit_cache = fit_cache is None
        self._fit_cache = FitCache() if fit_cache is None else fit_cache

    def _consume_request(self) -> None:
        """Record one API request, enforcing the rolling-minute quota."""
        if self.rate_limit_per_minute is None:
            return
        now = float(self._clock())
        window_start = now - 60.0
        self._request_times = [
            t for t in self._request_times if t > window_start
        ]
        if len(self._request_times) >= self.rate_limit_per_minute:
            raise QuotaExceededError(
                f"{self.name} rate limit exceeded: "
                f"{self.rate_limit_per_minute} requests/minute"
            )
        self._request_times.append(now)

    # ------------------------------------------------------------------
    # Resource API
    # ------------------------------------------------------------------

    def upload_dataset(self, X, y, name: str = "dataset") -> str:
        """Store a training dataset; returns its resource id."""
        self._consume_request()
        X, y = check_X_y(X, y, min_samples=2)
        if X.shape[0] > self.max_upload_samples:
            raise QuotaExceededError(
                f"{self.name} rejects uploads over "
                f"{self.max_upload_samples} samples (got {X.shape[0]})"
            )
        dataset_id = f"{self.name}-ds-{next(self._counter)}"
        self._datasets[dataset_id] = _StoredDataset(dataset_id, name, X.copy(), y.copy())
        return dataset_id

    def delete_dataset(self, dataset_id: str) -> None:
        """Remove an uploaded dataset and the finished models trained on it.

        COMPLETED and FAILED models go with their training data, so a
        long-lived service keeps only the models of live datasets rather
        than every estimator it ever fitted.  A job still QUEUED stays:
        it fails with "deleted before training" when the queue reaches it.
        """
        self._consume_request()
        if dataset_id not in self._datasets:
            raise ResourceNotFoundError(f"no dataset {dataset_id!r}")
        del self._datasets[dataset_id]
        finished = [
            model_id for model_id, handle in self._models.items()
            if handle.dataset_id == dataset_id
            and handle.state in (JobState.COMPLETED, JobState.FAILED)
        ]
        for model_id in finished:
            del self._models[model_id]
        if not self._datasets and self._owns_fit_cache:
            # No data left to train on: drop the memoized stage fits so
            # a long-lived platform does not pin dead arrays.  (Counters
            # survive; a shared external cache is its owner's to clear.)
            self._fit_cache.clear()

    def list_datasets(self) -> list[str]:
        """Ids of all stored datasets."""
        return sorted(self._datasets)

    def create_model(
        self,
        dataset_id: str,
        classifier: str | None = None,
        params: Mapping | None = None,
        feature_selection: str | None = None,
    ) -> str:
        """Launch a training job; returns the model resource id.

        ``classifier``/``params``/``feature_selection`` are validated
        against the platform's control surface — requesting a control the
        platform does not expose raises
        :class:`~repro.exceptions.UnsupportedControlError`, just as the
        real API would reject an unknown request field.
        """
        self._consume_request()
        dataset = self._datasets.get(dataset_id)
        if dataset is None:
            raise ResourceNotFoundError(f"no dataset {dataset_id!r}")
        configuration = self._validate_configuration(
            classifier, params, feature_selection
        )
        model_id = f"{self.name}-model-{next(self._counter)}"
        handle = ModelHandle(
            model_id=model_id,
            dataset_id=dataset_id,
            state=JobState.QUEUED,
            classifier_abbr=configuration["classifier"],
            params=configuration["params"],
            feature_selection=configuration["feature_selection"],
        )
        handle.metadata["job_seed"] = self._derive_job_seed(dataset, handle)
        self._models[model_id] = handle
        if self.synchronous:
            self._run_training_job(handle, dataset)
        else:
            self._job_queue.append(model_id)
        return model_id

    def pending_jobs(self) -> list[str]:
        """Model ids queued but not yet trained (async mode)."""
        return list(self._job_queue)

    def process_one_job(self) -> str | None:
        """Train the oldest queued job; returns its model id (or None).

        Deleting a model's dataset while its job is queued fails the job,
        as a real service would.
        """
        if not self._job_queue:
            return None
        model_id = self._job_queue.popleft()
        handle = self._models[model_id]
        dataset = self._datasets.get(handle.dataset_id)
        if dataset is None:
            handle.state = JobState.FAILED
            handle.failure_reason = TrainingFailure(
                stage="queue",
                kind="ResourceNotFoundError",
                detail=f"dataset {handle.dataset_id} was deleted "
                       "before training",
            )
            return model_id
        self._run_training_job(handle, dataset)
        return model_id

    def await_model(self, model_id: str) -> ModelHandle:
        """Block until a model's job reaches a terminal state.

        In the simulator "blocking" means draining the queue up to and
        including the requested job — the observable behaviour of polling
        a real training job until it completes.  Every poll of the job
        state is a metered API request: real services count status calls
        against the same quota as mutations, which is exactly why the
        paper's scripts had to pace their polling loops (§3.2, §8).
        """
        handle = self.get_model(model_id)
        while handle.state is JobState.QUEUED:
            self._consume_request()
            if model_id not in self._job_queue:
                raise JobFailedError(
                    f"model {model_id} is queued but not in the job queue"
                )
            self.process_one_job()
        return handle

    def get_model(self, model_id: str) -> ModelHandle:
        """Fetch a model's job state and metadata (one metered request)."""
        self._consume_request()
        return self._require_model(model_id)

    def _require_model(self, model_id: str) -> ModelHandle:
        """Server-side handle lookup; free, unlike the public poll."""
        handle = self._models.get(model_id)
        if handle is None:
            raise ResourceNotFoundError(f"no model {model_id!r}")
        return handle

    def list_models(self) -> list[str]:
        """Ids of all models (any job state)."""
        return sorted(self._models)

    def batch_predict(self, model_id: str, X) -> np.ndarray:
        """Return label predictions for a batch of query samples."""
        self._consume_request()
        handle = self._require_model(model_id)
        if handle.state is JobState.FAILED:
            raise JobFailedError(
                f"model {model_id} failed: {handle.failure_reason}"
            )
        if handle.state is not JobState.COMPLETED or handle.estimator is None:
            raise JobFailedError(f"model {model_id} is not ready")
        X = check_array(X)
        return np.asarray(handle.estimator.predict(X))

    # ------------------------------------------------------------------
    # Configuration validation against the control surface
    # ------------------------------------------------------------------

    def _validate_configuration(
        self,
        classifier: str | None,
        params: Mapping | None,
        feature_selection: str | None,
    ) -> dict:
        surface = self.controls
        if classifier is not None and not surface.classifiers:
            raise UnsupportedControlError(
                f"{self.name} is a black-box platform; it does not expose "
                f"classifier choice"
            )
        if params and not surface.supports_parameter_tuning:
            raise UnsupportedControlError(
                f"{self.name} does not expose parameter tuning"
            )
        if feature_selection is not None:
            if not surface.feature_selectors:
                raise UnsupportedControlError(
                    f"{self.name} does not expose feature selection"
                )
            if feature_selection not in surface.feature_selectors:
                raise UnsupportedControlError(
                    f"{self.name} has no feature selector "
                    f"{feature_selection!r}; available: "
                    f"{list(surface.feature_selectors)}"
                )
        resolved_params: dict = {}
        if classifier is not None:
            option = surface.classifier(classifier)
            resolved_params = option.validate_params(params or {})
        elif surface.classifiers:
            # Platform exposes CLF but the user kept the default
            # (paper baseline: Logistic Regression with defaults).
            option = surface.classifiers[0]
            classifier = option.abbr
            resolved_params = option.validate_params(params or {})
        return {
            "classifier": classifier,
            "params": resolved_params,
            "feature_selection": feature_selection,
        }

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    #: What a training job is allowed to catch: library failures
    #: (ReproError covers validation, platform and fitting errors),
    #: bad configuration values (ValueError) and numerical breakdown
    #: (ArithmeticError, singular matrices).  Programming errors such as
    #: TypeError or AttributeError still propagate — a real service would
    #: page on those, not mark the job FAILED.
    _JOB_ERRORS = (ReproError, ValueError, ArithmeticError, np.linalg.LinAlgError)

    def _run_training_job(self, handle: ModelHandle, dataset: _StoredDataset) -> None:
        handle.state = JobState.RUNNING
        started = time.perf_counter()
        stage = "assemble"
        try:
            estimator = self._assemble(handle, dataset.X, dataset.y)
            stage = "fit"
            estimator.fit(dataset.X, dataset.y)
            handle.estimator = estimator
            handle.state = JobState.COMPLETED
        except self._JOB_ERRORS as exc:
            handle.state = JobState.FAILED
            handle.failure_reason = TrainingFailure(
                stage=stage, kind=type(exc).__name__, detail=str(exc),
            )
        finally:
            handle.metadata["training_seconds"] = time.perf_counter() - started
            handle.metadata["n_training_samples"] = int(dataset.X.shape[0])

    def _assemble(
        self, handle: ModelHandle, X: np.ndarray, y: np.ndarray
    ) -> BaseEstimator:
        """Build the estimator/pipeline for a validated configuration."""
        raise NotImplementedError

    def _derive_job_seed(self, dataset: _StoredDataset, handle: ModelHandle) -> int:
        """Deterministic per-job seed from platform seed + data + config.

        Uses crc32 (not ``hash``, which is salted per process), over the
        training data bytes and the full configuration, so that training
        the same data with the same configuration yields the identical
        model on any machine and in any call order — scientific
        reproducibility a real cloud service does not offer, but a
        simulator should.
        """
        digest = zlib.crc32(f"{self.random_state}:{self.name}".encode())
        digest = zlib.crc32(np.ascontiguousarray(dataset.X).tobytes(), digest)
        digest = zlib.crc32(np.ascontiguousarray(dataset.y).tobytes(), digest)
        configuration = (
            f"{handle.classifier_abbr}|{sorted(handle.params.items())}"
            f"|{handle.feature_selection}"
        )
        digest = zlib.crc32(configuration.encode(), digest)
        return digest % (2**31)

    def _job_seed(self, handle: ModelHandle) -> int:
        """The deterministic seed assigned to a job at creation time."""
        return handle.metadata["job_seed"]

    # ------------------------------------------------------------------
    # Introspection used by the measurement harness
    # ------------------------------------------------------------------

    @property
    def exposed_dimensions(self) -> frozenset:
        """Which of FEAT / CLF / PARA this platform exposes."""
        return self.controls.exposed_dimensions

    def classifier_abbrs(self) -> list[str]:
        """Offered classifier abbreviations, in platform order."""
        return [option.abbr for option in self.controls.classifiers]

    def __repr__(self) -> str:
        dims = ",".join(sorted(self.exposed_dimensions)) or "none"
        return f"<{type(self).__name__} name={self.name!r} controls={dims}>"
