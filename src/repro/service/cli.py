"""The compilation-service CLI.

``python -m repro.service <subcommand>``:

* ``warm``    — compile a benchmark suite through the service to populate
  a persistent cache (``--jobs N`` fans out over worker processes);
* ``compile`` — compile one benchmark and print result + telemetry;
* ``stats``   — inventory a cache directory and the last run's telemetry;
* ``gc``      — drop cache namespaces whose fingerprint is stale.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.runner import format_table
from repro.service.jobs import COMPILERS, CompileJob, JobResult
from repro.service.scheduler import (
    Scheduler,
    ServiceOptions,
    default_cegis_options,
)
from repro.service.store import gc_store, store_stats
from repro.service.telemetry import format_run_summary, perf_line

DEFAULT_SUITE = (
    "dilate3x3", "average_pool", "max_pool", "sobel3x3",
    "add", "mul", "softmax", "matmul_b1", "l2norm", "conv_nn",
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, cache_required: bool) -> None:
        p.add_argument(
            "--cache-dir",
            required=cache_required,
            default=None,
            help="persistent synthesis-cache directory",
        )

    warm = sub.add_parser("warm", help="populate a cache from a suite")
    common(warm, cache_required=True)
    warm.add_argument("--isa", default="x86", help="comma-separated ISAs")
    warm.add_argument("--jobs", type=int, default=1)
    warm.add_argument(
        "--benchmarks",
        default=",".join(DEFAULT_SUITE),
        help="comma-separated benchmark names (default: representative suite)",
    )
    warm.add_argument("--timeout", type=float, default=None,
                      help="per-job wall budget in seconds")
    warm.add_argument("--retries", type=int, default=1)
    warm.add_argument("--synth-timeout", type=float, default=None,
                      help="per-window CEGIS budget in seconds")
    warm.add_argument("--kill-seconds", type=float, default=None,
                      help="kill backstop for workers whose job has no "
                      "wall budget (default: scheduler default)")

    compile_ = sub.add_parser("compile", help="compile one benchmark")
    common(compile_, cache_required=False)
    compile_.add_argument("--benchmark", required=True)
    compile_.add_argument("--isa", default="x86")
    compile_.add_argument("--compiler", default="hydride",
                          choices=tuple(COMPILERS))
    compile_.add_argument("--timeout", type=float, default=None)
    compile_.add_argument("--retries", type=int, default=1)
    compile_.add_argument("--synth-timeout", type=float, default=None)
    compile_.add_argument("--kill-seconds", type=float, default=None)

    stats = sub.add_parser("stats", help="cache inventory + last-run telemetry")
    common(stats, cache_required=True)
    stats.add_argument("--json", action="store_true")

    gc = sub.add_parser("gc", help="drop stale-fingerprint namespaces")
    common(gc, cache_required=True)

    return parser.parse_args(argv)


def _options(args: argparse.Namespace, jobs: int) -> ServiceOptions:
    cegis = default_cegis_options()
    if getattr(args, "synth_timeout", None):
        cegis.timeout_seconds = args.synth_timeout
    options = ServiceOptions(jobs=jobs, cache_dir=args.cache_dir, cegis=cegis)
    if getattr(args, "kill_seconds", None):
        options.kill_seconds = args.kill_seconds
    return options


def _print_results(results: list[JobResult], scheduler: Scheduler) -> None:
    rows = []
    for outcome in results:
        result, tel = outcome.result, outcome.telemetry
        rows.append([
            result.benchmark,
            result.target,
            result.compiler,
            f"{result.runtime_us:.2f}" if result.ok else "FAIL",
            f"{tel.wall_seconds:.2f}",
            str(tel.cache_hits),
            str(tel.failure_hits),
            str(tel.rule_hits),
            str(tel.synth_calls),
            str(tel.attempts),
            tel.fallback or "-",
        ])
    print(format_table(
        ["benchmark", "isa", "compiler", "runtime (us)", "wall (s)",
         "hits", "neg-hits", "rules", "synth", "attempts", "fallback"],
        rows,
    ))
    stats = scheduler.last_stats
    print(
        f"\n{stats.jobs} jobs, {stats.ok} ok | "
        f"hit rate {stats.hit_rate:.1%} "
        f"({stats.cache_hits} hits + {stats.failure_hits} negative + "
        f"{stats.rule_hits} rule-served, "
        f"{stats.synth_calls} synthesized) | "
        f"wall {stats.wall_seconds:.1f}s, "
        f"worker utilization {stats.utilization:.0%}"
    )
    if stats.cache_screened:
        print(
            f"hit check: {stats.cache_screened} cache hits checked, "
            f"{stats.cache_screen_failures} evicted"
        )
    print(perf_line(stats.perf_metrics(), stats.perf))


def _cmd_warm(args: argparse.Namespace) -> int:
    isas = [s for s in args.isa.split(",") if s]
    names = [s for s in args.benchmarks.split(",") if s]
    jobs = [
        CompileJob(
            name, isa, "hydride",
            timeout_seconds=args.timeout, retries=args.retries,
        )
        for isa in isas
        for name in names
    ]
    scheduler = Scheduler(_options(args, args.jobs))
    results = scheduler.run(jobs)
    _print_results(results, scheduler)
    return 0 if all(r.ok for r in results) else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    job = CompileJob(
        args.benchmark, args.isa, args.compiler,
        timeout_seconds=args.timeout, retries=args.retries,
    )
    scheduler = Scheduler(_options(args, jobs=1))
    results = scheduler.run([job])
    _print_results(results, scheduler)
    return 0 if results[0].ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = store_stats(args.cache_dir)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            ns["isa"],
            ns["fingerprint"][:16],
            str(ns["entries"]),
            str(ns["failures"]),
            str(ns.get("rules", 0)),
            f"{ns['bytes'] / 1024:.1f}",
        ]
        for ns in stats["namespaces"]
    ]
    print(format_table(
        ["isa", "fingerprint", "entries", "failures", "rules", "KiB"], rows
    ))
    print(
        f"\ntotal: {stats['total_entries']} entries, "
        f"{stats['total_failures']} negative, "
        f"{stats.get('total_rules', 0)} rules, "
        f"{stats['total_bytes'] / 1024:.1f} KiB"
        + (
            f", {stats['total_tmp_litter']} .tmp litter"
            if stats.get("total_tmp_litter")
            else ""
        )
    )
    last = stats.get("last_run")
    if last:
        for line in format_run_summary(last, label="last run"):
            print(line)
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.autollvm import build_dictionary
    from repro.synthesis.serialize import dictionary_fingerprint

    fingerprint = dictionary_fingerprint(build_dictionary())
    outcome = gc_store(args.cache_dir, fingerprint)
    reaped = outcome.get("removed_rulebooks", 0)
    print(
        f"removed {outcome['removed_namespaces']} stale namespaces "
        f"({outcome['removed_files']} files"
        + (f", {reaped} stale rulebooks" if reaped else "")
        + f"); kept {fingerprint[:16]}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    handlers = {
        "warm": _cmd_warm,
        "compile": _cmd_compile,
        "stats": _cmd_stats,
        "gc": _cmd_gc,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
