"""Figure 6: runtime performance of Hydride against the baselines.

For each target, every benchmark is compiled by Hydride, the
production-Halide-style backend, the LLVM-generic backend (and, on HVX,
Rake), then costed by the machine model.  Reported numbers are speedups
of Hydride over each baseline per benchmark plus geomeans — the exact
quantities plotted in the paper's Figures 6a-6c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import (
    ExperimentRunner,
    SuiteResult,
    format_table,
)
from repro.isa.registry import CORE_ISAS
from repro.workloads.registry import Benchmark

# Paper geomeans for orientation (speedup of Hydride over each baseline).
PAPER_GEOMEANS = {
    ("x86", "halide"): 1.08,
    ("x86", "llvm"): 1.12,
    ("hvx", "halide"): 1.00,
    ("hvx", "llvm"): 2.00,
    ("hvx", "rake"): 1.25,
    ("arm", "halide"): 1.03,
    ("arm", "llvm"): 1.26,
}


@dataclass
class Figure6Result:
    suites: dict[str, SuiteResult] = field(default_factory=dict)

    def geomean(self, isa: str, baseline: str) -> float | None:
        return self.suites[isa].geomean_speedup("hydride", baseline)

    def rake_failures(self) -> list[str]:
        suite = self.suites.get("hvx")
        if suite is None:
            return []
        return [
            result.benchmark
            for result in suite.results.values()
            if result.compiler == "rake" and not result.ok
        ]


def compilers_for(isa: str) -> tuple[str, ...]:
    if isa == "hvx":
        return ("hydride", "halide", "llvm", "rake")
    return ("hydride", "halide", "llvm")


def run(
    isas: tuple[str, ...] = CORE_ISAS,
    benchmarks: list[Benchmark] | None = None,
    runner: ExperimentRunner | None = None,
) -> Figure6Result:
    runner = runner or ExperimentRunner()
    result = Figure6Result()
    for isa in isas:
        result.suites[isa] = runner.run_suite(
            isa, compilers_for(isa), benchmarks
        )
    return result


def render(result: Figure6Result) -> str:
    chunks = []
    for isa, suite in result.suites.items():
        names = sorted({b for b, _ in suite.results})
        baselines = [c for c in compilers_for(isa) if c != "hydride"]
        headers = ["Benchmark"] + [f"vs {b}" for b in baselines]
        rows = []
        for name in names:
            row = [name]
            for baseline in baselines:
                speedup = suite.speedup(name, "hydride", baseline)
                row.append(f"{speedup:.2f}x" if speedup else "-")
            rows.append(row)
        geo = ["geomean"]
        for baseline in baselines:
            value = suite.geomean_speedup("hydride", baseline)
            paper = PAPER_GEOMEANS.get((isa, baseline))
            text = f"{value:.2f}x" if value else "-"
            if paper:
                text += f" (paper {paper:.2f}x)"
            geo.append(text)
        rows.append(geo)
        chunks.append(f"Figure 6 [{isa}]: Hydride speedups\n" + format_table(headers, rows))
    failures = result.rake_failures()
    if failures:
        chunks.append(
            f"Rake failed to compile {len(failures)} benchmarks: "
            + ", ".join(sorted(failures)[:10])
            + (" ..." if len(failures) > 10 else "")
        )
    return "\n\n".join(chunks)
