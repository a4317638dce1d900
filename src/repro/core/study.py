"""Study orchestration: the paper's three measurement protocols.

:class:`MLaaSStudy` drives all seven platforms over a dataset corpus and
produces the result stores consumed by :mod:`repro.analysis`:

* ``run_baseline()`` — one zero-control measurement per (platform,
  dataset), reproducing the "baseline" bars of Fig 4 and Table 3a.
* ``run_optimized()`` — the full configuration sweep per platform; the
  per-dataset best reproduces the "optimized" bars of Fig 4, Table 3b,
  and the sweep itself feeds Figs 5–8 and Table 4.
* ``run_per_control(dimension)`` — tune one control, others at baseline
  (Figs 5 and 7).

A :class:`StudyScale` preset bounds corpus size and grid resolution so
the same code runs as a quick test, a laptop bench, or a paper-scale
sweep.  Every protocol runs through the one campaign driver,
:func:`repro.service.run_campaign` — inline, on threads (``workers``) or
on processes (``processes``), with retries and telemetry — and produces
a result store bit-identical to the serial sweep whatever the executor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.config_space import (
    baseline_configuration,
    enumerate_configurations,
    per_control_configurations,
)
from repro.core.controls import CONTROL_DIMENSIONS
from repro.core.results import ResultStore
from repro.core.runner import ExperimentRunner
from repro.datasets.corpus import Dataset, load_corpus
from repro.exceptions import ValidationError
from repro.platforms import ALL_PLATFORMS
from repro.platforms.base import MLaaSPlatform

__all__ = ["StudyScale", "MLaaSStudy"]


@dataclass(frozen=True)
class StudyScale:
    """Resource preset for a study run.

    Attributes
    ----------
    max_datasets : int or None
        Corpus subset size (None = all 119).
    size_cap : int or None
        Per-dataset row cap.
    feature_cap : int or None
        Per-dataset column cap.
    para_grid : str
        "single_axis" (default), "full", or "default".
    """

    max_datasets: int | None = 12
    size_cap: int | None = 400
    feature_cap: int | None = 30
    para_grid: str = "single_axis"

    @staticmethod
    def tiny() -> "StudyScale":
        """A seconds-scale preset for tests."""
        return StudyScale(max_datasets=4, size_cap=150, feature_cap=8,
                          para_grid="default")

    @staticmethod
    def small() -> "StudyScale":
        """The default minutes-scale bench preset."""
        return StudyScale()

    @staticmethod
    def paper() -> "StudyScale":
        """Full corpus, full grids — the paper-scale protocol."""
        return StudyScale(max_datasets=None, size_cap=None, feature_cap=None,
                          para_grid="full")


class MLaaSStudy:
    """End-to-end measurement study over all platforms and a corpus.

    Parameters
    ----------
    scale : StudyScale
        Resource preset.
    platforms : sequence of platform classes or instances, or None
        Defaults to all seven platforms in complexity order.
    random_state : int
        Seed shared by corpus subsetting and platform internals.
    workers : int
        Worker threads for the measurement protocols.  ``1`` (default)
        runs the jobs inline in serial order; ``> 1`` runs them on a
        thread pool.  Either way the result store is identical to the
        serial sweep.
    processes : int
        Worker processes.  ``> 1`` runs dataset-keyed shards on a
        process pool — the CPU-bound full-grid path past the GIL, still
        bit-identical to serial.  At most one of ``workers``/``processes``
        may exceed 1, and process mode does not accept an injected
        ``clock`` (it cannot cross the pickling boundary).
    clock : callable or None
        Optional shared time source with the :class:`VirtualClock`
        interface.  When given it is passed to every platform the study
        constructs (driving their rolling-minute rate limiters) and to
        the campaign's retry backoff, so waits and quota windows move
        together.
    """

    def __init__(
        self,
        scale: StudyScale | None = None,
        platforms=None,
        random_state: int = 0,
        workers: int = 1,
        processes: int = 1,
        clock=None,
    ):
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        if workers > 1 and processes > 1:
            raise ValidationError(
                "choose one campaign executor: thread workers "
                f"(workers={workers}) or process shards "
                f"(processes={processes}), not both"
            )
        if processes > 1 and clock is not None:
            raise ValidationError(
                "process-sharded campaigns cannot use an injected clock; "
                "it does not cross the pickling boundary"
            )
        self.scale = scale or StudyScale.small()
        self.random_state = random_state
        self.workers = int(workers)
        self.processes = int(processes)
        self.clock = clock
        platform_kwargs = {"random_state": random_state}
        if clock is not None:
            platform_kwargs["clock"] = clock
        platform_sources = platforms if platforms is not None else ALL_PLATFORMS
        # Classes are instantiated with the study's seed/clock; anything
        # already constructed — an in-process platform or a wire client
        # such as repro.serving.HTTPPlatformClient — passes through, so
        # a campaign runs unchanged against a remote server.
        self.platforms: list[MLaaSPlatform] = [
            source(**platform_kwargs) if isinstance(source, type)
            else source
            for source in platform_sources
        ]
        self.runner = ExperimentRunner(split_seed=random_state + 7)
        #: Telemetry of the most recent protocol run (None before any).
        self.telemetry = None
        self._corpus: list[Dataset] | None = None

    @property
    def corpus(self) -> list[Dataset]:
        """The study's dataset corpus (loaded lazily, then cached)."""
        if self._corpus is None:
            self._corpus = load_corpus(
                max_datasets=self.scale.max_datasets,
                size_cap=self.scale.size_cap,
                feature_cap=self.scale.feature_cap,
                random_state=self.random_state,
            )
        return self._corpus

    def platform(self, name: str) -> MLaaSPlatform:
        """Look up one of the study's platform instances by name."""
        for platform in self.platforms:
            if platform.name == name:
                return platform
        raise KeyError(f"study has no platform {name!r}")

    # -- protocols ---------------------------------------------------------

    def protocol_plan(self, protocol: str, platforms: list[str] | None = None) -> list:
        """The (platform, configurations) plan of a measurement protocol.

        ``protocol`` is ``"baseline"``, ``"optimized"`` or a control
        dimension (``"FEAT"``/``"CLF"``/``"PARA"``); platforms with an
        empty configuration list are excluded.  The plan order is the
        serial sweep order, which every campaign executor preserves.
        """
        plan: list = []
        for platform in self.platforms:
            if platforms is not None and platform.name not in platforms:
                continue
            if protocol == "baseline":
                configurations = [baseline_configuration(platform)]
            elif protocol == "optimized":
                configurations = list(enumerate_configurations(
                    platform, para_grid=self.scale.para_grid
                ))
            elif protocol in CONTROL_DIMENSIONS:
                configurations = per_control_configurations(
                    platform, protocol, para_grid=self.scale.para_grid
                )
            else:
                raise ValidationError(
                    f"unknown protocol {protocol!r}; use 'baseline', "
                    f"'optimized' or one of {list(CONTROL_DIMENSIONS)}"
                )
            if configurations:
                plan.append((platform, configurations))
        return plan

    def run_campaign_plan(
        self,
        plan: list,
        resume_from: ResultStore | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 200,
    ) -> ResultStore:
        """Run a plan through :func:`repro.service.run_campaign`.

        The study's ``workers``/``processes`` choose the executor; the
        results are identical to the serial sweep whichever runs, and
        the run's :class:`~repro.service.Telemetry` is kept on
        ``self.telemetry`` for inspection/export.  ``checkpoint_path``
        is rewritten every ``checkpoint_every`` new measurements.
        """
        # Imported here to keep repro.core importable without the service
        # layer at import time (service imports core.runner/core.results).
        from repro.service import Telemetry, run_campaign

        platforms = [platform for platform, _ in plan]
        configurations = {platform.name: configs
                          for platform, configs in plan}
        if len(configurations) != len(plan):
            # The driver keys configurations by platform name: a
            # concatenated plan would silently drop all but the last.
            counts = Counter(platform.name for platform in platforms)
            duplicated = sorted(n for n, count in counts.items() if count > 1)
            raise ValidationError(
                f"campaign plan names platform(s) {duplicated} more than "
                f"once; run each protocol plan on its own or merge their "
                f"configurations"
            )
        self.telemetry = Telemetry()
        return run_campaign(
            self.runner, platforms, self.corpus, configurations,
            workers=self.workers, processes=self.processes,
            resume_from=resume_from,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            telemetry=self.telemetry, clock=self.clock,
            seed=self.random_state,
        )

    def run_campaign(
        self,
        protocol: str = "baseline",
        platforms: list[str] | None = None,
        resume_from: ResultStore | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 200,
    ) -> ResultStore:
        """Run a named protocol as a checkpointable campaign."""
        return self.run_campaign_plan(
            self.protocol_plan(protocol, platforms=platforms),
            resume_from=resume_from,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )

    def run_baseline(self) -> ResultStore:
        """Zero-control measurement of every platform on every dataset."""
        return self.run_campaign_plan(self.protocol_plan("baseline"))

    def run_optimized(self, platforms: list[str] | None = None) -> ResultStore:
        """Full configuration sweep (the 'optimized' protocol, §4.1)."""
        return self.run_campaign_plan(self.protocol_plan("optimized", platforms=platforms))

    def run_per_control(self, dimension: str) -> ResultStore:
        """Tune one control dimension, others at baseline (Figs 5, 7)."""
        return self.run_campaign_plan(self.protocol_plan(dimension))

    def run_all_controls(self) -> dict[str, ResultStore]:
        """Per-control sweeps for all three dimensions."""
        return {
            dimension: self.run_per_control(dimension)
            for dimension in CONTROL_DIMENSIONS
        }

    def run_blackbox_audit(
        self,
        max_configs_per_classifier: int = 3,
        qualification_threshold: float = 0.95,
    ) -> dict:
        """The §6 pipeline end to end against this study's black boxes.

        1. Collect family-labelled observations from every platform that
           exposes classifier choice.
        2. Train per-dataset family predictors; keep the qualified ones.
        3. Infer each black-box platform's per-dataset family choice.
        4. Compare each black box against the naive LR-vs-DT strategy.

        Returns a dict with ``predictors``, ``reports`` (per black box)
        and ``comparisons`` (per black box).
        """
        # Imported here to keep repro.core free of an analysis dependency
        # at import time (analysis imports core).
        from repro.analysis.family import (
            collect_family_observations,
            infer_blackbox_families,
            train_family_predictors,
        )
        from repro.analysis.naive import compare_with_blackbox

        ground_truth_platforms = [
            platform for platform in self.platforms
            if platform.controls.classifiers
        ]
        blackboxes = [
            platform for platform in self.platforms
            if not platform.controls.classifiers
        ]
        observations = collect_family_observations(
            self.runner, ground_truth_platforms, self.corpus,
            max_configs_per_classifier=max_configs_per_classifier,
        )
        predictors = train_family_predictors(
            observations, random_state=self.random_state,
            qualification_threshold=qualification_threshold,
        )
        reports = {}
        comparisons = {}
        for blackbox in blackboxes:
            report = infer_blackbox_families(
                self.runner, blackbox, self.corpus, predictors
            )
            reports[blackbox.name] = report
            comparisons[blackbox.name] = compare_with_blackbox(
                self.runner, blackbox, self.corpus,
                blackbox_families=report.choices,
                random_state=self.random_state,
            )
        return {
            "predictors": predictors,
            "reports": reports,
            "comparisons": comparisons,
        }
