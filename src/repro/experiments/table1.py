"""Table 1: AutoLLVM IR results for each architecture.

For every ISA subset the paper reports ISA size, AutoLLVM size (number of
equivalence classes), and the ratio.  The one partition over every
registered ISA provides every row by restricting the equivalence relation
to each subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.experiments.runner import format_table
from repro.irgen import classes_and_stats
from repro.isa.registry import CORE_ISAS
from repro.similarity.eqclass import restrict_classes


def subsets_for(isas: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Every non-empty subset of ``isas``: each ISA alone, then the
    pairs, and so on up to all of them (for the paper's three ISAs, its
    seven rows in its order)."""
    return [
        subset
        for size in range(1, len(isas) + 1)
        for subset in combinations(isas, size)
    ]


# The paper's Table 1, for side-by-side reporting.
PAPER_ROWS = {
    ("x86",): (2029, 136, 6.7),
    ("hvx",): (307, 115, 37.5),
    ("arm",): (1221, 177, 14.5),
    ("x86", "hvx"): (2336, 232, 9.9),
    ("x86", "arm"): (3250, 302, 9.3),
    ("hvx", "arm"): (1528, 286, 18.7),
    ("x86", "hvx", "arm"): (3557, 397, 11.2),
}


@dataclass
class Table1Row:
    isas: tuple[str, ...]
    isa_size: int
    autollvm_size: int

    @property
    def percent(self) -> float:
        return 100.0 * self.autollvm_size / self.isa_size


@dataclass
class Table1Result:
    rows: list[Table1Row]
    checks: int

    def row(self, isas: tuple[str, ...]) -> Table1Row:
        for candidate in self.rows:
            if candidate.isas == isas:
                return candidate
        raise KeyError(isas)


def run(isas: tuple[str, ...] = CORE_ISAS) -> Table1Result:
    """One row per non-empty subset of ``isas``, each the one partition
    over every registered ISA restricted to that subset."""
    classes, stats = classes_and_stats()
    rows = []
    for subset in subsets_for(tuple(isas)):
        restricted = restrict_classes(classes, set(subset))
        instructions = sum(len(c.members) for c in restricted)
        rows.append(Table1Row(subset, instructions, len(restricted)))
    return Table1Result(rows, stats.checks)


def render(result: Table1Result) -> str:
    headers = [
        "Architecture", "ISA Size", "AutoLLVM Size", "% of ISA",
        "paper ISA", "paper AutoLLVM", "paper %",
    ]
    body = []
    for row in result.rows:
        # Subsets the paper didn't measure (e.g. rvv rows) have no
        # side-by-side column.
        paper = PAPER_ROWS.get(row.isas)
        body.append([
            " + ".join(row.isas),
            str(row.isa_size),
            str(row.autollvm_size),
            f"{row.percent:.1f}%",
            str(paper[0]) if paper else "—",
            str(paper[1]) if paper else "—",
            f"{paper[2]:.1f}%" if paper else "—",
        ])
    return "Table 1: AutoLLVM IR results\n" + format_table(headers, body)
