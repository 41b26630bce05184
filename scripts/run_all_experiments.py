"""Regenerate every paper table/figure and write rendered reports.

Usage:
    python scripts/run_all_experiments.py [--full] [--out reports/]

Without --full a representative benchmark subset is used (see
benchmarks/conftest.py); --full runs all 33 benchmarks on all targets and
can take a long while.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--out", default="reports")
    parser.add_argument(
        "--only", default="", help="comma-separated subset, e.g. table1,figure6"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="fan suite compilations out over N service workers",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent synthesis cache directory (survives restarts)",
    )
    parser.add_argument(
        "--daemon", default=None, metavar="ADDR",
        help="submit suite compilations to a running repro.daemon at "
        "host:port instead of spawning local workers",
    )
    parser.add_argument(
        "--irgen-cache", default=None,
        help="offline IR-generation artifact store: equivalence classes "
        "and the AutoLLVM dictionary load from disk instead of being "
        "recomputed (see python -m repro.irgen build)",
    )
    args = parser.parse_args()
    if args.irgen_cache:
        # Before the repro.experiments imports below: every table pulls
        # the dictionary/classes at first use.
        os.environ["REPRO_IRGEN_CACHE"] = args.irgen_cache

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    from repro.experiments import (
        figure6,
        figure7,
        table1,
        table2,
        table3,
        table4,
        table5,
    )
    from repro.experiments.runner import ExperimentRunner
    from repro.isa.registry import supported_isas
    from repro.synthesis import CegisOptions
    from repro.workloads.registry import all_benchmarks, benchmark_named

    wanted = set(filter(None, args.only.split(",")))

    def selected(name: str) -> bool:
        return not wanted or name in wanted

    if args.full:
        benchmarks = all_benchmarks()
    else:
        names = [
            "dilate3x3", "average_pool", "max_pool", "sobel3x3",
            "add", "mul", "softmax", "matmul_b1", "l2norm", "conv_nn",
            "fully_connected", "gaussian7x7", "conv3x3a16",
        ]
        benchmarks = [benchmark_named(n) for n in names]

    runner = ExperimentRunner(
        CegisOptions(timeout_seconds=20.0, scale_factor=8),
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        daemon_addr=args.daemon,
    )

    def emit(name: str, text: str, seconds: float) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text + f"\n\n[generated in {seconds:.1f}s]\n")
        print(f"== {name} ({seconds:.1f}s) -> {path}")
        print(text)
        print()

    if selected("table1"):
        # The paper's seven 3-ISA rows, then every subset of every
        # registered ISA; both restrict the one partition.
        start = time.time()
        emit("table1", table1.render(table1.run()), time.time() - start)
        start = time.time()
        emit(
            "table1_rvv",
            table1.render(table1.run(supported_isas())),
            time.time() - start,
        )
    if selected("table2"):
        start = time.time()
        emit("table2", table2.render(table2.run()), time.time() - start)
    if selected("table3"):
        start = time.time()
        emit("table3", table3.render(table3.run()), time.time() - start)
    if selected("table5") or selected("figure7"):
        start = time.time()
        result5 = table5.run(("x86", "hvx", "arm") if args.full else ("x86", "hvx"))
        emit("table5", table5.render(result5), time.time() - start)
        start = time.time()
        emit(
            "figure7",
            figure7.render(figure7.run(from_table5=result5)),
            time.time() - start,
        )
    if selected("figure6"):
        start = time.time()
        result6 = figure6.run(("x86", "hvx", "arm"), benchmarks, runner)
        emit("figure6", figure6.render(result6), time.time() - start)
    if selected("table4"):
        start = time.time()
        result4 = table4.run("x86", benchmarks[:6], runner)
        emit("table4", table4.render(result4), time.time() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
