#!/usr/bin/env python3
"""Run a resumable measurement campaign against an asynchronous platform.

The paper's sweeps took months of calendar time (October 2016 – February
2017) against rate-limited web APIs.  This example shows the two
operational features built for that reality:

* the asynchronous job mode — ``create_model`` queues a training job and
  the client polls ``await_model``, exactly like the real services;
* resumable, checkpointed campaigns — :func:`repro.service.run_campaign`
  can be interrupted at any point and continued from its JSON
  checkpoint without repeating work.  The whole campaign below runs on
  the asynchronous platform: the runner polls every queued job.

Run:  python examples/measurement_campaign.py
"""

import tempfile
from pathlib import Path

from repro.analysis import render_table, study_cost_report
from repro.core import ExperimentRunner, enumerate_configurations
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.platforms import BigML
from repro.service import Telemetry, run_campaign


def main() -> None:
    datasets = load_corpus(max_datasets=4, size_cap=250, feature_cap=10)
    platform = BigML(random_state=0, synchronous=False)
    configurations = list(enumerate_configurations(
        platform, para_grid="single_axis"
    ))
    print(f"campaign: {len(configurations)} configurations x "
          f"{len(datasets)} datasets on {platform.name}")

    # --- the async job shape (one model, spelled out) -------------------
    split = datasets[0].split(random_state=7)
    async_platform = BigML(random_state=0, synchronous=False)
    dataset_id = async_platform.upload_dataset(split.X_train, split.y_train)
    model_id = async_platform.create_model(dataset_id, classifier="RF")
    print(f"\nqueued job: {model_id} "
          f"(state={async_platform.get_model(model_id).state.value})")
    handle = async_platform.await_model(model_id)     # poll until done
    print(f"after await_model: state={handle.state.value}, "
          f"trained in {handle.metadata['training_seconds'] * 1000:.0f} ms")

    # --- the checkpointed campaign -------------------------------------
    runner = ExperimentRunner(split_seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "campaign.json"

        # Phase 1: the campaign "crashes" after the first two datasets.
        partial = run_campaign(
            runner, [platform], datasets[:2], configurations,
            checkpoint_path=checkpoint,
        )
        print(f"\nphase 1 done: {len(partial)} measurements "
              f"checkpointed to {checkpoint.name}")

        # Phase 2: resume from the checkpoint; finished work is skipped.
        telemetry = Telemetry()
        resumed = run_campaign(
            runner, [platform], datasets, configurations,
            resume_from=ResultStore.load(checkpoint),
            checkpoint_path=checkpoint, telemetry=telemetry,
        )
        print(f"phase 2 done: {len(resumed)} total measurements "
              f"({telemetry.counter_value('jobs_done')} new, "
              f"{telemetry.counter_value('jobs_failed')} failed, "
              f"{telemetry.platform_requests(platform.name)['await_model']}"
              " jobs polled to completion)")

        best = resumed.best_per_dataset()
        print()
        print(render_table(
            ["dataset", "best configuration", "f-score"],
            [
                [name, result.configuration.label()[:46],
                 f"{result.f_score:.3f}"]
                for name, result in sorted(best.items())
            ],
            title="Campaign results (best configuration per dataset)",
        ))

        report = study_cost_report(resumed)[0]
        print(f"\ncampaign accounting: {report.n_measurements} jobs, "
              f"{report.training_hours * 3600:.1f}s total training, "
              f"{report.n_predictions:,} predictions, "
              f"~${report.estimated_usd:.2f} at 2017-shaped pricing")


if __name__ == "__main__":
    main()
