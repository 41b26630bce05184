#!/usr/bin/env python3
"""bench_e2e: one compile request, socket to response, layer by layer.

    python3 bench_e2e/run.py --seed N [--workload W] [--trace [0|1]]
                             [--seconds S] [--quick] [--record FILE]

Drives a real ``repro.daemon`` (and, for ``near_miss_windows``, the
``repro.synthesis`` library entry) through the four workloads of
``spec.WORKLOADS``, checks every served program against the Halide
reference interpreter, and prints every metric by name with its unit.
Without ``--trace`` the numbers are the end-to-end ones, taken with no
tracing anywhere; ``--trace`` repeats the request list through the
traced replay and prints the per-layer table instead.

The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding the metrics
``BENCHMARK.json`` lists for that mode.  A run whose mechanism did not
fire (see README, "Validity guards") exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent), str(_BENCH.parent / "src")]

from bench_e2e import harness, spec  # noqa: E402


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="default: all four, in order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec.BENCHMARK_RUN_SECONDS),
                        help="length of the timed section")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="self-test size: a job or two per workload")
    parser.add_argument("--record", default=None,
                        help="append one JSON line per run (compare.py input)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _print_tables(out, name: str, result: dict, env: dict) -> None:
    print(f"\n== {name}  ({json.dumps(env, sort_keys=True)})", file=out)
    print("-- end to end", file=out)
    for metric in spec.END_TO_END + spec.OUTCOME:
        print(f"{metric.name:28s} {_fmt(result['e2e'][metric.name]):>14s} "
              f"{metric.unit}", file=out)
    layers = result["layers"]
    if layers is not None:
        print("-- per layer (traced replay + response frames + /stats)", file=out)
        for metric in spec.PER_LAYER:
            print(f"{metric.name:28s} {_fmt(layers[metric.name]):>14s} "
                  f"{metric.unit}", file=out)
        if not layers["portfolio.windows"]:
            print("portfolio: not_run (portfolio_arms is 0, the serve "
                  f"default; racing arms on {os.cpu_count()} cores would "
                  "fall back inline)", file=out)
        print("-- layer self time, largest first", file=out)
        ranked = sorted(result["notes"]["layer_self_seconds"].items(),
                        key=lambda item: -item[1])
        for layer, seconds in ranked:
            print(f"{layer:28s} {seconds:14.4f} s", file=out)
    brief = {k: v for k, v in result["notes"].items()
             if k not in ("layer_self_seconds", "samples")}
    print(f"-- notes {json.dumps(brief, sort_keys=True, default=str)}", file=out)


def _driver_line(result: dict, trace: int) -> dict:
    """The contract's last line: the metrics BENCHMARK.json lists for
    this mode, as numbers (a per-layer n/a reads 0)."""
    if trace:
        values = {**result["e2e"], **result["layers"]}
        listed = spec.OUTCOME + spec.PER_LAYER
    else:
        values, listed = result["e2e"], spec.END_TO_END
    return {
        "correct": not result["mismatches"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": values[m.name] or 0, "unit": m.unit}
            for m in listed
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    harness.require_program()
    # The daemon and its children print to fd 1; keep that stream for
    # our own report and send everything else to stderr.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    harness.use_local_tmp()
    # Imported here: require_program() must get to speak first.
    from bench_e2e import nearmiss, workloads

    # The checkout's build step: whichever run comes first pays for it.
    workloads.ensure_fixture()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    code = 0
    for name in names:
        env = harness.environment(args.seed)
        try:
            if name == "near_miss_windows":
                result = nearmiss.run(
                    args.seed, args.seconds, args.quick, bool(args.trace))
            else:
                result = workloads.run(
                    name, args.seed, args.seconds, args.quick, bool(args.trace))
            if (result["layers"] is not None and
                    result["layers"]["trace.unattributed_share"] > spec.UNATTRIBUTED_CAP):
                raise harness.Invalid(
                    f"{name}: {result['layers']['trace.unattributed_share']:.3f}"
                    " of the request wall is in no layer's span")
        except harness.Invalid as exc:
            print(f"bench_e2e: INVALID RUN, no result: {exc}", file=sys.stderr)
            code = 2
            continue
        _print_tables(out, name, result, env)
        record = {"workload": name, "trace": args.trace, "env": env,
                  "quick": args.quick, "seconds": args.seconds, **result}
        harness.write_json(harness.OUT_DIR / f"result-{name}.json", record)
        if args.record:
            with open(args.record, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        print(json.dumps(_driver_line(result, args.trace)), file=out)
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
