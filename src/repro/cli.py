"""Command-line interface.

The paper's platform is browser-first (§4.3.1); this CLI covers the
headless workflows — validating, running, rendering and serving flow
files — so pipelines can live in scripts and CI:

    python -m repro validate dashboard.flow
    python -m repro run dashboard.flow --data ./data --endpoint out
    python -m repro refresh dashboard.flow --data ./data --cycles 3
    python -m repro render dashboard.flow --data ./data -o dash.html
    python -m repro explain dashboard.flow --data ./data
    python -m repro serve dashboard.flow --data ./data --port 8350

Data objects resolve through their flow-file source configuration,
relative to ``--data`` (the dashboard's data folder, §4.3.2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.dsl.diagnostics import diagnose
from repro.engine.scheduler import EXECUTORS
from repro.errors import ShareInsightsError
from repro.platform import Platform


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ShareInsights flow-file tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("flow_file", help="path to the flow file")
        sub.add_argument(
            "--data",
            default=".",
            help="dashboard data directory (default: cwd)",
        )
        sub.add_argument(
            "--name", default=None, help="dashboard name"
        )

    validate = commands.add_parser(
        "validate", help="parse + validate, with pin-pointed errors"
    )
    validate.add_argument("flow_file")

    run = commands.add_parser("run", help="execute the flows")
    add_common(run)
    run.add_argument(
        "--engine",
        choices=["local", "distributed"],
        default=None,
        help="engine (default: chosen by input size)",
    )
    run.add_argument(
        "--endpoint",
        default=None,
        help="print this endpoint's rows as JSON after the run",
    )
    run.add_argument(
        "--fault-profile",
        default=None,
        metavar="PROFILE[:SEED]",
        help=(
            "inject seeded faults on the distributed engine "
            "(none, transient, lost, straggler, flaky, chaos) "
            "to demo the resilience layer"
        ),
    )
    run.add_argument(
        "--parallelism",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker pool size for the distributed engine and for "
            "parallel source loading; results and telemetry are "
            "identical at every setting (default: 1)"
        ),
    )
    run.add_argument(
        "--executor",
        choices=list(EXECUTORS),
        default="threads",
        help=(
            "worker pool backend: threads (default; fine for I/O) or "
            "processes (true multi-core for CPU-bound decode/shuffle; "
            "POSIX fork, falls back to threads elsewhere)"
        ),
    )
    run.add_argument(
        "--small-job-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "stay sequential when the estimated source payload is "
            "below this many bytes; 0 always parallelizes (default: "
            "8 MiB, or the REPRO_SMALL_JOB_BYTES env var)"
        ),
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="print the run's span tree (compile -> stage -> attempt)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage hot-spot table for the run",
    )

    refresh = commands.add_parser(
        "refresh",
        help="run once, then refresh incrementally on an interval",
    )
    add_common(refresh)
    refresh.add_argument(
        "--cycles",
        type=int,
        default=1,
        metavar="N",
        help="refresh cycles to run after the priming run (default: 1)",
    )
    refresh.add_argument(
        "--interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="pause between cycles (default: 0, back to back)",
    )
    refresh.add_argument(
        "--full",
        action="store_true",
        help=(
            "recompute everything each cycle instead of advancing "
            "delta cursors incrementally"
        ),
    )
    refresh.add_argument(
        "--endpoint",
        default=None,
        help="print this endpoint's rows as JSON after the last cycle",
    )

    render = commands.add_parser(
        "render", help="run + render the dashboard"
    )
    add_common(render)
    render.add_argument(
        "-o", "--output", default=None, help="write HTML here"
    )

    explain = commands.add_parser(
        "explain", help="show the compiled plan and bottlenecks"
    )
    add_common(explain)

    serve = commands.add_parser(
        "serve", help="serve the REST API with this dashboard loaded"
    )
    add_common(serve)
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="serving-tier worker threads (default: 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help=(
            "bounded admission queue length; a full queue answers "
            "503 + Retry-After instead of waiting (default: 16)"
        ),
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "end-to-end per-request deadline, queue wait included; "
            "expiry answers 504 (default: 10)"
        ),
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help=(
            "token-bucket rate limit per (route, tenant) in "
            "requests/second; over-limit answers 429 (default: off)"
        ),
    )
    serve.add_argument(
        "--executor",
        choices=list(EXECUTORS),
        default="threads",
        help=(
            "worker pool backend for recompute requests "
            "(default: threads)"
        ),
    )
    serve.add_argument(
        "--pool-warm",
        type=int,
        default=0,
        metavar="N",
        help=(
            "pre-fork N warm pool workers before accepting requests, "
            "so the first ?executor=processes recompute pays zero "
            "fork cost; requires --executor processes (default: 0)"
        ),
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help=(
            "persist last-known-good endpoint tables under this "
            "directory on drain, and restore them at startup so a "
            "restarted server can serve degraded reads immediately"
        ),
    )

    return parser


def _load(args) -> tuple[Platform, str]:
    source = Path(args.flow_file).read_text(encoding="utf-8")
    name = args.name or Path(args.flow_file).stem
    platform = Platform()
    platform.create_dashboard(name, source, data_dir=args.data)
    return platform, name


def _cmd_validate(args) -> int:
    source = Path(args.flow_file).read_text(encoding="utf-8")
    report = diagnose(source)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    platform, name = _load(args)
    report = platform.run_dashboard(
        name,
        engine=args.engine,
        fault_profile=getattr(args, "fault_profile", None),
        parallelism=getattr(args, "parallelism", 1),
        executor=getattr(args, "executor", "threads"),
        small_job_bytes=getattr(args, "small_job_bytes", None),
    )
    print(
        f"ran {name!r} on the {report.engine} engine in "
        f"{report.seconds * 1000:.1f} ms; "
        f"{report.rows_produced} rows produced; "
        f"endpoints: {', '.join(report.endpoints) or '-'}",
        file=sys.stderr,
    )
    if report.retried_partitions or report.recovered_stages:
        print(
            f"resilience: {report.attempts} attempts, "
            f"{report.retried_partitions} retried partition(s), "
            f"{report.speculative_wins} speculative win(s), "
            f"{len(report.recovered_stages)} recovered stage(s): "
            f"{', '.join(report.recovered_stages) or '-'}",
            file=sys.stderr,
        )
    if getattr(args, "trace", False) or getattr(args, "profile", False):
        from repro.observability import (
            render_hotspot_table,
            render_span_tree,
        )

        spans = platform.observability.tracer.trace(
            report.trace_id or ""
        )
        if getattr(args, "trace", False):
            print(f"== trace {report.trace_id} ==", file=sys.stderr)
            print(render_span_tree(spans), file=sys.stderr)
        if getattr(args, "profile", False):
            print(
                f"== profile {report.trace_id} ==", file=sys.stderr
            )
            print(render_hotspot_table(spans), file=sys.stderr)
    if args.endpoint:
        table = platform.get_dashboard(name).endpoint(args.endpoint)
        sys.stdout.write(table.to_json_records(default=str, indent=2))
        print()
    return 0


def _cmd_refresh(args) -> int:
    import time

    from repro.dashboard.refresh import RefreshScheduler

    platform, name = _load(args)
    report = platform.run_dashboard(name)
    print(
        f"primed {name!r}: {report.rows_produced} rows, "
        f"endpoints: {', '.join(report.endpoints) or '-'}",
        file=sys.stderr,
    )
    scheduler = RefreshScheduler(
        platform,
        interval=args.interval or 1.0,
        dashboards=[name],
        incremental=not args.full,
    )
    exit_code = 0
    for cycle in range(max(args.cycles, 0)):
        if cycle and args.interval > 0:
            time.sleep(args.interval)
        result = scheduler.run_cycle()[name]
        if isinstance(result, Exception):
            print(f"cycle {cycle}: error: {result}", file=sys.stderr)
            exit_code = 1
            continue
        print(
            f"cycle {cycle}: {result.mode} in "
            f"{result.seconds * 1000:.1f} ms; "
            f"{result.delta_rows} delta row(s); "
            f"{len(result.flows_incremental)} incremental / "
            f"{len(result.flows_full)} full / "
            f"{len(result.flows_skipped)} skipped flow(s); "
            f"changed: {', '.join(result.endpoints_changed) or '-'}",
            file=sys.stderr,
        )
    if args.endpoint:
        table = platform.get_dashboard(name).endpoint(args.endpoint)
        sys.stdout.write(table.to_json_records(default=str, indent=2))
        print()
    return exit_code


def _cmd_render(args) -> int:
    platform, name = _load(args)
    platform.run_dashboard(name)
    view = platform.get_dashboard(name).render()
    if args.output:
        Path(args.output).write_text(view.html, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(view.text)
    return 0


def _cmd_explain(args) -> int:
    platform, name = _load(args)
    dashboard = platform.get_dashboard(name)
    print("== logical plan ==")
    print(dashboard.compiled.plan.describe())
    if dashboard.compiled.optimization.notes:
        print("== optimizations ==")
        for note in dashboard.compiled.optimization.notes:
            print(f"  {note}")
    platform.run_dashboard(name)
    print("== bottlenecks ==")
    print(dashboard.bottleneck_report())
    return 0


def _cmd_serve(args) -> int:
    from repro.server import ServingConfig, serve

    platform, name = _load(args)
    platform.run_dashboard(name)
    config = ServingConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        rate_limit=args.rate_limit,
    )
    checkpoints = None
    if args.checkpoint_dir:
        from repro.resilience import DiskCheckpointStore

        checkpoints = DiskCheckpointStore(args.checkpoint_dir)
    pool_warm = args.pool_warm if args.executor == "processes" else 0
    server = serve(
        platform,
        port=args.port,
        config=config,
        checkpoints=checkpoints,
        pool_warm=pool_warm,
    )
    host, port = server.server_address
    print(
        f"serving {name!r} on http://{host}:{port}/dashboards "
        f"({config.workers} workers, queue {config.queue_depth}, "
        f"deadline {config.request_timeout}s)",
        file=sys.stderr,
    )
    if pool_warm:
        print(
            f"warm pool: {pool_warm} pre-forked process worker(s)",
            file=sys.stderr,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        server.shutdown()
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "refresh": _cmd_refresh,
    "render": _cmd_render,
    "explain": _cmd_explain,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ShareInsightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
