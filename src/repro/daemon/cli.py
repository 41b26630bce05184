"""The daemon CLI.

``python -m repro.daemon <subcommand>``:

* ``serve``  — run the daemon in the foreground (SIGTERM drains);
* ``submit`` — submit one or more benchmarks to a running daemon;
* ``stats``  — scrape and render a running daemon's ``/stats``;
* ``pack``   — export/import cache packs for fleet warm-up.

Quick start::

    python -m repro.daemon serve --cache-dir .cache --jobs 4 &
    python -m repro.daemon submit --addr 127.0.0.1:7461 --benchmarks add,mul
    python -m repro.daemon stats --addr 127.0.0.1:7461
    python -m repro.daemon pack export --cache-dir .cache --output warm.pack
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

DEFAULT_PORT = 7461


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    from repro.service.jobs import COMPILERS

    parser = argparse.ArgumentParser(
        prog="python -m repro.daemon", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the compilation daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--port-file", default=None,
                       help="write host:port here once accepting")
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker processes")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent synthesis-cache directory (L2)")
    serve.add_argument("--synth-timeout", type=float, default=None,
                       help="per-window CEGIS budget in seconds")
    serve.add_argument("--kill-seconds", type=float, default=None,
                       help="wall backstop for budget-less jobs")
    serve.add_argument("--l1-capacity", type=int, default=512,
                       help="in-memory result LRU size (jobs)")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="global pending-queue bound")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       help="per-tenant sustained submits/second "
                       "(default: no rate limit; the in-flight cap and "
                       "the queue bound always apply)")
    serve.add_argument("--tenant-burst", type=int, default=100,
                       help="per-tenant token-bucket burst "
                       "(with --tenant-rate)")
    serve.add_argument("--tenant-max-inflight", type=int, default=16,
                       help="per-tenant admitted-but-unanswered cap")
    serve.add_argument("--drain-seconds", type=float, default=60.0,
                       help="SIGTERM drain budget before abandoning work")
    serve.add_argument("--warm-pack", default=None,
                       help="import this cache pack before serving")

    submit = sub.add_parser("submit", help="submit jobs to a daemon")
    submit.add_argument("--addr", required=True, help="daemon host:port")
    submit.add_argument("--benchmarks", required=True,
                        help="comma-separated benchmark names")
    submit.add_argument("--isa", default="x86", help="comma-separated ISAs")
    submit.add_argument("--compiler", default="hydride",
                        choices=tuple(COMPILERS))
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job wall budget in seconds")
    submit.add_argument("--retries", type=int, default=1)
    submit.add_argument("--client-timeout", type=float, default=600.0,
                        help="socket timeout waiting for responses")
    submit.add_argument("--expect-cached", action="store_true",
                        help="fail if any response synthesized "
                        "(used to verify pack warm-up)")
    submit.add_argument("--json", action="store_true",
                        help="print raw response frames as JSON lines")

    stats = sub.add_parser("stats", help="render a daemon's /stats")
    stats.add_argument("--addr", required=True, help="daemon host:port")
    stats.add_argument("--json", action="store_true")
    stats.add_argument("--output", default=None,
                       help="also write the raw stats JSON here")

    pack = sub.add_parser("pack", help="cache packs (fleet warm-up)")
    pack_sub = pack.add_subparsers(dest="pack_command", required=True)
    pack_export = pack_sub.add_parser(
        "export", help="snapshot a cache dir into one pack file"
    )
    pack_export.add_argument("--cache-dir", required=True)
    pack_export.add_argument("--output", required=True)
    pack_import = pack_sub.add_parser(
        "import", help="merge a pack file into a cache dir"
    )
    pack_import.add_argument("--cache-dir", required=True)
    pack_import.add_argument("--input", required=True)

    return parser.parse_args(argv)


# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.daemon.admission import AdmissionLimits
    from repro.daemon.server import DaemonOptions, serve
    from repro.service.scheduler import (
        DEFAULT_KILL_SECONDS,
        default_cegis_options,
    )

    cegis = default_cegis_options()
    if args.synth_timeout:
        cegis.timeout_seconds = args.synth_timeout
    options = DaemonOptions(
        host=args.host,
        port=args.port,
        jobs=max(1, args.jobs),
        cache_dir=args.cache_dir,
        cegis=cegis,
        kill_seconds=args.kill_seconds or DEFAULT_KILL_SECONDS,
        limits=AdmissionLimits(
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            tenant_max_inflight=args.tenant_max_inflight,
            max_queue=args.max_queue,
        ),
        l1_capacity=max(1, args.l1_capacity),
        drain_seconds=args.drain_seconds,
        warm_pack=args.warm_pack,
    )

    def ready(server) -> None:
        addr = f"{args.host}:{server.bound_port}"
        print(f"[daemon] listening on {addr}", flush=True)
        if args.port_file:
            from repro.persist import atomic_write
            from pathlib import Path

            atomic_write(Path(args.port_file), addr)

    asyncio.run(serve(options, ready_callback=ready))
    print("[daemon] drained, exiting", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.daemon.client import DaemonClient, DaemonError
    from repro.experiments.runner import result_from_frame

    benchmarks = [s for s in args.benchmarks.split(",") if s]
    isas = [s for s in args.isa.split(",") if s]
    requests = [
        {
            "benchmark": name,
            "isa": isa,
            "compiler": args.compiler,
            "timeout_seconds": args.timeout,
            "retries": args.retries,
        }
        for isa in isas
        for name in benchmarks
    ]
    try:
        with DaemonClient.connect(
            args.addr, timeout=args.client_timeout
        ) as client:
            frames = client.submit_many(requests, tenant=args.tenant)
    except DaemonError as exc:
        print(f"daemon error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    synthesized = 0
    for request, frame in zip(requests, frames):
        # The experiments' judgement: a rejection, a failure, or an
        # answer from the baseline fallback is not the requested
        # compiler's success.
        result = result_from_frame(
            frame, request["benchmark"], request["isa"], args.compiler
        )
        telemetry = frame.get("telemetry") or {}
        synthesized += telemetry.get("synth_calls", 0)
        failures += not result.ok
        if args.json:
            print(json.dumps(frame, sort_keys=True))
            continue
        line = f"{result.benchmark}/{result.target}: " + (
            f"{result.runtime_us:.2f}us" if result.ok
            else f"FAIL {result.error}"
        )
        if frame.get("ok"):
            line += (
                f" (served_by={frame.get('served_by')}, "
                f"hits={telemetry.get('cache_hits')}, "
                f"synth={telemetry.get('synth_calls')}, "
                f"wall={telemetry.get('wall_seconds', 0):.2f}s)"
            )
        print(line)
    if args.expect_cached and synthesized:
        print(
            f"--expect-cached violated: {synthesized} synthesis calls",
            file=sys.stderr,
        )
        return 3
    return 0 if failures == 0 else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.daemon.client import http_get
    from repro.service.telemetry import format_run_summary, tier_summary

    stats = http_get(args.addr, "/stats")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(stats, indent=2, sort_keys=True)
        )
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    daemon = stats.get("daemon") or {}
    print(
        f"daemon up {daemon.get('uptime_seconds', 0):.0f}s | "
        f"{daemon.get('connections_open', 0)} open / "
        f"{daemon.get('connections_total', 0)} total connections | "
        f"queue {daemon.get('queue_depth', 0)}, "
        f"inflight {daemon.get('inflight', 0)} "
        f"({daemon.get('workers_active', 0)}/{daemon.get('workers', 0)} "
        "workers busy)"
    )
    print(
        f"dedup: {daemon.get('coalesced', 0)} coalesced, "
        f"{daemon.get('window_deferrals', 0)} window deferrals | "
        f"drops: {daemon.get('conn_drops', 0)} | "
        f"drain abandoned: {daemon.get('drain_abandoned', 0)}"
    )
    for line in tier_summary(stats):
        print(line)
    admission = stats.get("admission") or {}
    rejected = admission.get("rejected") or {}
    print(
        f"admission: rejected {rejected.get('rate', 0)} rate / "
        f"{rejected.get('inflight', 0)} inflight / "
        f"{rejected.get('queue', 0)} queue"
    )
    for name, tenant in (admission.get("tenants") or {}).items():
        print(
            f"  tenant {name}: {tenant.get('submitted', 0)} submitted, "
            f"{tenant.get('inflight', 0)} inflight, "
            f"{tenant.get('completed', 0)} completed, "
            f"{tenant.get('rejected', 0)} rejected"
        )
    runs = stats.get("runs")
    if runs:
        for line in format_run_summary(runs, label="lifetime"):
            print(line)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.service.store import PackError, export_pack, import_pack

    try:
        if args.pack_command == "export":
            summary = export_pack(args.cache_dir, args.output)
            print(
                f"packed {summary['entries']} entries + "
                f"{summary['failures']} negative across "
                f"{summary['namespaces']} namespaces "
                f"({summary['bytes'] / 1024:.1f} KiB) -> {args.output}"
            )
        else:
            summary = import_pack(args.cache_dir, args.input)
            print(
                f"imported {summary['imported']} entries "
                f"({summary['skipped']} already present) "
                f"into {args.cache_dir}"
            )
    except PackError as exc:
        print(f"pack error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "stats": _cmd_stats,
        "pack": _cmd_pack,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
