"""Figure 7: speedup of synthesis heuristics over the BVS baseline.

Derived directly from the Table 5 measurements, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import table5
from repro.experiments.runner import format_table
from repro.isa.registry import CORE_ISAS

SERIES = [
    "BVS + lane-wise",
    "BVS + scaling",
    "BVS + scaling + lane-wise",
    "BVS + scaling + lane-wise + SBOS",
]

# The paper's reported speedups for orientation.
PAPER_SPEEDUPS = {
    ("x86", "BVS + lane-wise"): 2.0,
    ("hvx", "BVS + lane-wise"): 2.8,
    ("arm", "BVS + lane-wise"): 1.4,
    ("x86", "BVS + scaling + lane-wise"): 2.0,
    ("hvx", "BVS + scaling + lane-wise"): 12.8,
    ("arm", "BVS + scaling + lane-wise"): 3.6,
    ("x86", "BVS + scaling + lane-wise + SBOS"): 2.7,
    ("hvx", "BVS + scaling + lane-wise + SBOS"): 20.8,
    ("arm", "BVS + scaling + lane-wise + SBOS"): 6.0,
}


@dataclass
class Figure7Result:
    speedups: dict[tuple[str, str], float | None] = field(default_factory=dict)
    table5_result: table5.Table5Result | None = None


def run(
    isas: tuple[str, ...] = CORE_ISAS,
    budget: float = 120.0,
    from_table5: table5.Table5Result | None = None,
) -> Figure7Result:
    base = from_table5 or table5.run(isas, budget)
    result = Figure7Result(table5_result=base)
    for isa in base.per_isa:
        for series in SERIES:
            result.speedups[(isa, series)] = base.speedup_over_bvs(isa, series)
    return result


def render(result: Figure7Result) -> str:
    isas = sorted({isa for isa, _ in result.speedups})
    headers = ["Heuristic"] + [f"{isa} (ours)" for isa in isas] + [
        f"{isa} (paper)" for isa in isas
    ]
    rows = []
    for series in SERIES:
        row = [series]
        for isa in isas:
            speedup = result.speedups.get((isa, series))
            row.append(f"{speedup:.1f}x" if speedup else "-")
        for isa in isas:
            paper = PAPER_SPEEDUPS.get((isa, series))
            row.append(f"{paper:.1f}x" if paper else "-")
        rows.append(row)
    return "Figure 7: synthesis heuristic speedups over BVS\n" + format_table(
        headers, rows
    )
