"""Table 2: bugs found in Rake's hand-written HVX semantics.

The paper found five masking bugs in Rake's interpreters by comparing
against Hydride's generated semantics.  Here the differential fuzzer runs
Rake's modelled interpreter (with and without the bug) against the
reference executables: the buggy families — and only those — must
diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.rake import RakeHvxInterpreter
from repro.experiments.runner import format_table
from repro.isa.fuzz import DifferentialReport, fuzz_interpreter
from repro.isa.registry import load_catalog


@dataclass
class Table2Result:
    buggy_reports: list[DifferentialReport]
    fixed_reports: list[DifferentialReport]
    known_bugs: list[tuple[str, int, str]]

    def buggy_families(self) -> set[str]:
        return {r.family for r in self.buggy_reports if r.is_bug}

    def fixed_families(self) -> set[str]:
        return {r.family for r in self.fixed_reports if r.is_bug}


def _shift_specs():
    catalog = load_catalog("hvx")
    return [
        spec
        for spec in catalog
        if spec.family.startswith(("shift_scalar", "shift_var"))
    ]


def run(trials: int = 48) -> Table2Result:
    specs = _shift_specs()
    buggy = fuzz_interpreter(
        specs, RakeHvxInterpreter(buggy=True).execute, trials=trials
    )
    fixed = fuzz_interpreter(
        specs, RakeHvxInterpreter(buggy=False).execute, trials=trials
    )
    return Table2Result(buggy, fixed, RakeHvxInterpreter.KNOWN_BUGS)


def render(result: Table2Result) -> str:
    headers = ["Instruction", "Family", "Mismatches", "Trials"]
    rows = [
        [r.instruction, r.family, str(r.mismatches), str(r.trials)]
        for r in result.buggy_reports
        if r.is_bug
    ]
    table = format_table(headers, rows)
    paper = "\n".join(
        f"  {file}:{line}  {desc}" for file, line, desc in result.known_bugs
    )
    return (
        "Table 2: divergences of Rake's hand-written HVX semantics\n"
        f"{table}\n\nPaper's reported bugs (all unmasked-shift species):\n{paper}"
    )
