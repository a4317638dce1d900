"""Command-line interface: ``python -m repro.cli <command>``.

Gives downstream users the common study operations without writing code:

* ``corpus``    — list the 119-dataset corpus (Fig 3 characteristics).
* ``platforms`` — list the platforms and their control surfaces (Table 1).
* ``baseline``  — run the zero-control protocol and print Table 3(a).
* ``optimized`` — run the full-sweep protocol and print Fig 4 / Table 3(b).
* ``boundary``  — probe a platform's decision boundary on a 2-D dataset.
* ``campaign``  — run a protocol through the concurrent campaign
  scheduler (:mod:`repro.service`): worker pool, retries, telemetry,
  checkpoint/resume, optional serial-equality verification.  With
  ``--processes N`` the CPU-bound grid fans out dataset-keyed shards
  over a process pool (bit-identical, resumable) instead of threads.
* ``serve``     — expose the platform simulators over HTTP
  (:mod:`repro.serving`): JSON endpoints for upload/train/predict,
  structured access logs, ``/metrics/summary`` percentiles.
* ``loadgen``   — drive a server (or an in-process loopback) with a
  seeded closed/open-loop request schedule and print the exact
  latency-percentile report.
* ``check``     — the static analyzers (lint, flow, race, perf, shape,
  wire) in one process over one shared parse, with a merged report and
  worst-exit-code semantics; ``--tools`` selects analyzers,
  ``--list-rules`` and ``--update-spec`` maintain them; see
  :mod:`repro.tools.check`.

The study commands accept ``--datasets`` / ``--size-cap`` to bound
runtime.  ``check`` (like ``campaign``, ``serve`` and ``loadgen``)
reports through the exit-code taxonomy of :mod:`repro.tools.exitcodes`:
0 clean, 1 findings, 2 usage error, 3 analyzer crash.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import (
    boundary_linearity,
    platform_summary,
    probe_decision_boundary,
    render_table,
)
from repro.core import MLaaSStudy, StudyScale
from repro.datasets import CORPUS, load_dataset
from repro.exceptions import ValidationError
from repro.platforms import ALL_PLATFORMS, make_platform
from repro.serving import (
    AccessLog,
    HTTPPlatformClient,
    LoadgenConfig,
    PlatformHTTPServer,
    ServingGateway,
    ServingLimits,
    run_load,
    serve_background,
)
from repro.tools.exitcodes import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    run_guarded,
)
from repro.tools.check.cli import configure_parser as _configure_check_parser
from repro.tools.check.cli import run_check_command

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLaaS complexity-vs-performance measurement study "
                    "(IMC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("corpus", help="list the 119-dataset corpus")
    sub.add_parser("platforms", help="list platforms and control surfaces")

    for name, help_text in (
        ("baseline", "run the zero-control protocol (Table 3a)"),
        ("optimized", "run the full-sweep protocol (Fig 4 / Table 3b)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--datasets", type=int, default=8,
                         help="corpus subset size (default 8)")
        cmd.add_argument("--size-cap", type=int, default=250,
                         help="per-dataset sample cap (default 250)")
        cmd.add_argument("--seed", type=int, default=1)

    campaign = sub.add_parser(
        "campaign",
        help="run a measurement campaign on the concurrent scheduler "
             "(threads) or the process-sharded engine (--processes)",
    )
    campaign.add_argument("--protocol", choices=["baseline", "optimized"],
                          default="baseline")
    campaign.add_argument("--workers", type=int, default=None,
                          help="worker threads (default 4; ignored when "
                               "--processes > 1)")
    campaign.add_argument("--processes", type=int, default=1,
                          help="worker processes for the CPU-bound "
                               "dataset-sharded backend (default 1: "
                               "thread scheduler)")
    campaign.add_argument("--datasets", type=int, default=6,
                          help="corpus subset size (default 6)")
    campaign.add_argument("--size-cap", type=int, default=200,
                          help="per-dataset sample cap (default 200)")
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--checkpoint", default=None,
                          help="ResultStore JSON checkpoint path")
    campaign.add_argument("--resume", default=None,
                          help="checkpoint to resume from")
    campaign.add_argument("--telemetry-out", default=None,
                          help="write the telemetry JSON snapshot here")
    campaign.add_argument("--compare-serial", action="store_true",
                          help="also run the serial sweep and verify the "
                               "campaign produced identical results")

    boundary = sub.add_parser(
        "boundary", help="probe a platform's decision boundary"
    )
    boundary.add_argument("platform", choices=[c.name for c in ALL_PLATFORMS])
    boundary.add_argument("--dataset", default="synthetic/circle",
                          help="a 2-feature corpus dataset name")
    boundary.add_argument("--resolution", type=int, default=60)
    boundary.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="serve the platform simulators over HTTP"
    )
    serve.add_argument("--platform", action="append", dest="platforms",
                       choices=[c.name for c in ALL_PLATFORMS],
                       help="platform to mount (repeatable; default all)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick a free one)")
    serve.add_argument("--seed", type=int, default=0,
                       help="random_state for the served platforms")
    serve.add_argument("--access-log", default=None,
                       help="append structured JSONL access records here")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="shut down after this many requests")
    serve.add_argument("--max-body-bytes", type=int, default=8_000_000)
    serve.add_argument("--max-batch-rows", type=int, default=10_000)
    serve.add_argument("--soft-timeout", type=float, default=30.0,
                       help="per-request soft deadline in seconds "
                            "(0 disables it)")

    loadgen = sub.add_parser(
        "loadgen", help="run a seeded load schedule against a server"
    )
    target = loadgen.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", default=None,
                        help="base URL of a running repro serve instance")
    target.add_argument("--loopback", action="store_true",
                        help="boot an in-process loopback server and "
                             "drive it over real HTTP")
    loadgen.add_argument("--platform", default="bigml",
                         choices=[c.name for c in ALL_PLATFORMS])
    loadgen.add_argument("--clients", type=int, default=4)
    loadgen.add_argument("--predicts", type=int, default=3,
                         help="batch predictions per client session")
    loadgen.add_argument("--mode", choices=["closed", "open"],
                         default="closed")
    loadgen.add_argument("--spacing", type=float, default=0.01,
                         help="mean interarrival seconds (open mode)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--samples", type=int, default=40)
    loadgen.add_argument("--features", type=int, default=5)
    loadgen.add_argument("--query-rows", type=int, default=8)
    loadgen.add_argument("--output", default=None,
                         help="write the JSON report here")
    loadgen.add_argument("--compare-serial", action="store_true",
                         help="re-run the schedule serially and verify "
                              "the payload digests match")

    check = sub.add_parser(
        "check", help="run the static analyzers over one shared parse"
    )
    _configure_check_parser(check)
    return parser


def _cmd_corpus(out) -> int:
    rows = [
        [spec.name, spec.domain, spec.concept, f"{spec.n_samples:,}",
         spec.n_features]
        for spec in CORPUS
    ]
    print(render_table(
        ["name", "domain", "concept", "samples", "features"], rows,
        title=f"Corpus: {len(CORPUS)} datasets",
    ), file=out)
    return 0


def _cmd_platforms(out) -> int:
    rows = []
    for cls in ALL_PLATFORMS:
        platform = cls()
        rows.append([
            platform.name,
            platform.complexity,
            ",".join(sorted(platform.exposed_dimensions)) or "none",
            ",".join(platform.classifier_abbrs()) or "(hidden)",
            len(platform.controls.feature_selectors),
        ])
    print(render_table(
        ["platform", "complexity", "controls", "classifiers", "# feat sel"],
        rows, title="Platforms (Table 1 control surfaces)",
    ), file=out)
    return 0


def _cmd_study(args, optimized: bool, out) -> int:
    scale = StudyScale(
        max_datasets=args.datasets, size_cap=args.size_cap,
        feature_cap=12, para_grid="single_axis" if optimized else "default",
    )
    study = MLaaSStudy(scale=scale, random_state=args.seed)
    store = study.run_optimized() if optimized else study.run_baseline()
    summaries = platform_summary(store)
    print(render_table(
        ["platform", "avg fried.", "f-score", "accuracy", "precision", "recall"],
        [
            [s.platform, f"{s.avg_friedman:.1f}"]
            + [f"{s.avg[m]:.3f}" for m in
               ("f_score", "accuracy", "precision", "recall")]
            for s in summaries
        ],
        title=("Optimized (best configuration per dataset)" if optimized
               else "Baseline (zero control)"),
    ), file=out)
    return 0


def _cmd_campaign(args, out) -> int:
    import time

    from repro.core.results import ResultStore

    scale = StudyScale(
        max_datasets=args.datasets, size_cap=args.size_cap,
        feature_cap=12, para_grid="default",
    )
    processes = args.processes
    workers = args.workers
    if workers is None:
        workers = 1 if processes > 1 else 4
    try:
        study = MLaaSStudy(scale=scale, random_state=args.seed,
                           workers=workers, processes=processes)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    resume_from = ResultStore.load(args.resume) if args.resume else None
    started = time.perf_counter()
    store = study.run_campaign(
        protocol=args.protocol,
        resume_from=resume_from,
        checkpoint_path=args.checkpoint,
    )
    campaign_seconds = time.perf_counter() - started

    backend = (f"processes={processes}" if processes > 1
               else f"workers={workers}")
    summaries = platform_summary(store)
    print(render_table(
        ["platform", "avg fried.", "f-score", "accuracy", "precision", "recall"],
        [
            [s.platform, f"{s.avg_friedman:.1f}"]
            + [f"{s.avg[m]:.3f}" for m in
               ("f_score", "accuracy", "precision", "recall")]
            for s in summaries
        ],
        title=f"Campaign ({args.protocol}, {backend}): "
              f"{len(store)} measurements in {campaign_seconds:.2f}s",
    ), file=out)

    telemetry = study.telemetry
    snapshot = telemetry.snapshot()
    counters = snapshot["counters"]
    if processes > 1:
        print(f"\ntelemetry: {counters.get('shards_done', 0)}/"
              f"{counters.get('shards_total', 0)} shards, "
              f"{counters.get('jobs_resumed', 0)} resumed, "
              f"{counters.get('jobs_failed', 0)} failed jobs, "
              f"fit cache {counters.get('fit_cache_hits', 0)} hits / "
              f"{counters.get('fit_cache_misses', 0)} misses", file=out)
    else:
        print(f"\ntelemetry: {counters.get('requests_total', 0)} requests, "
              f"{counters.get('retries_total', 0)} retries, "
              f"{counters.get('jobs_resumed', 0)} resumed, "
              f"{counters.get('jobs_failed', 0)} failed jobs", file=out)
    if args.telemetry_out:
        telemetry.save(args.telemetry_out)
        print(f"telemetry snapshot written to {args.telemetry_out}", file=out)

    if args.compare_serial:
        serial_study = MLaaSStudy(scale=scale, random_state=args.seed)
        started = time.perf_counter()
        serial_store = (serial_study.run_optimized()
                        if args.protocol == "optimized"
                        else serial_study.run_baseline())
        serial_seconds = time.perf_counter() - started
        matches = list(serial_store) == list(store)
        print(f"serial sweep: {len(serial_store)} measurements in "
              f"{serial_seconds:.2f}s — campaign results "
              f"{'IDENTICAL' if matches else 'DIFFER'}", file=out)
        if not matches:
            print("error: campaign results diverge from the serial sweep",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_serve(args, out) -> int:
    """Boot the HTTP front-end; blocks until shutdown or budget."""
    names = list(dict.fromkeys(
        args.platforms or [cls.name for cls in ALL_PLATFORMS]
    ))
    try:
        limits = ServingLimits(
            max_body_bytes=args.max_body_bytes,
            max_batch_rows=args.max_batch_rows,
            soft_timeout_seconds=(args.soft_timeout
                                  if args.soft_timeout > 0 else None),
        )
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    platforms = [make_platform(name, random_state=args.seed)
                 for name in names]
    gateway = ServingGateway(
        platforms, limits=limits, access_log=AccessLog(args.access_log),
    )
    server = PlatformHTTPServer(
        gateway, host=args.host, port=args.port,
        max_requests=args.max_requests,
    )
    # The banner writes to an arbitrary stream and can raise (closed
    # pipe); it must not sit between the bind and the try/finally that
    # owns the socket, or a failed write leaks the listening port.
    try:
        print(f"serving {', '.join(names)} at {server.url}", file=out,
              flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        gateway.access_log.flush()
    print("server stopped", file=out)
    return EXIT_CLEAN


def _cmd_loadgen(args, out) -> int:
    """Run a seeded load schedule; exit 1 on failures or digest drift."""
    server = thread = None
    try:
        config = LoadgenConfig(
            clients=args.clients,
            predicts_per_client=args.predicts,
            mode=args.mode,
            arrival_spacing_seconds=args.spacing,
            seed=args.seed,
            samples=args.samples,
            features=args.features,
            query_rows=args.query_rows,
        )
        if args.loopback:
            gateway = ServingGateway(
                [make_platform(args.platform, random_state=args.seed)]
            )
            server, thread = serve_background(gateway)
            base_url = server.url
        else:
            base_url = args.url

        def factory(client_id: str) -> HTTPPlatformClient:
            return HTTPPlatformClient(
                base_url, args.platform, client_id=client_id
            )

        report = run_load(factory, config)
        if args.compare_serial:
            serial = run_load(factory, config, parallel=False)
            report["serial_payload_digest"] = serial["payload_digest"]
            report["serial_equivalent"] = (
                serial["payload_digest"] == report["payload_digest"]
            )
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if server is not None:
            server.shutdown()
            thread.join()
            server.server_close()
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered, file=out)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=out)
    if report["requests_failed"]:
        print(f"error: {report['requests_failed']} requests failed "
              f"({report['failures']})", file=sys.stderr)
        return EXIT_FINDINGS
    if args.compare_serial and not report["serial_equivalent"]:
        print("error: concurrent payload digest diverges from the serial "
              "run of the same schedule", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_boundary(args, out) -> int:
    dataset = load_dataset(args.dataset, size_cap=500)
    if dataset.X.shape[1] != 2:
        print(f"error: {args.dataset} has {dataset.X.shape[1]} features; "
              "boundary probing needs exactly 2", file=sys.stderr)
        return 2
    split = dataset.split(random_state=args.seed)
    platform = make_platform(args.platform, random_state=args.seed)
    probe = probe_decision_boundary(
        platform, split.X_train, split.y_train, resolution=args.resolution
    )
    print(probe.render_ascii(width=min(60, args.resolution)), file=out)
    linearity = boundary_linearity(probe)
    verdict = "linear" if linearity > 0.95 else "NON-linear"
    print(f"\nboundary linearity on {args.dataset}: {linearity:.3f} "
          f"({verdict})", file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "corpus":
        return _cmd_corpus(out)
    if args.command == "platforms":
        return _cmd_platforms(out)
    if args.command == "baseline":
        return _cmd_study(args, optimized=False, out=out)
    if args.command == "optimized":
        return _cmd_study(args, optimized=True, out=out)
    if args.command == "campaign":
        # Same 0/1/2/3 exit taxonomy as the analyzers: 0 clean, 1 the
        # campaign diverged from serial, 2 unusable invocation, 3 crash.
        return run_guarded(_cmd_campaign, args, out=out)
    if args.command == "boundary":
        return _cmd_boundary(args, out=out)
    if args.command == "serve":
        return run_guarded(_cmd_serve, args, out=out)
    if args.command == "loadgen":
        return run_guarded(_cmd_loadgen, args, out=out)
    if args.command == "check":
        return run_guarded(run_check_command, args, out=out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
