"""Table 5: synthesis sensitivity analysis.

Synthesizing the dot-product operation for each target under different
heuristic settings: all instructions / top-50-by-score / BVS /
BVS+lane-wise / BVS+scaling / BVS+scaling+lane-wise / everything+SBOS.
Grammar sizes and wall-clock synthesis times are measured for real; the
"all instructions" and "top 50" settings are run under a small timeout
and reported as intractable when they exceed it, as in the paper.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from repro.autollvm import build_dictionary
from repro.experiments.runner import format_table
from repro.experiments.table3 import matmul_window
from repro.isa.registry import CORE_ISAS
from repro.synthesis import (
    CegisOptions,
    GrammarOptions,
    SynthesisFailure,
    build_grammar,
    synthesize,
)


@dataclass
class Setting:
    name: str
    grammar: GrammarOptions
    lanewise: bool
    scaling: bool
    # Settings expected to blow up get a short leash.
    timeout: float


def settings(budget: float) -> list[Setting]:
    return [
        Setting("all instructions", GrammarOptions(include_all=True, bvs=False, sbos=False),
                True, True, min(budget, 20.0)),
        Setting("top 50 by score", GrammarOptions(bvs=False, sbos=False, top_n_by_score=50),
                True, True, min(budget, 30.0)),
        Setting("BVS", GrammarOptions(bvs=True, sbos=False), False, False, budget),
        Setting("BVS + lane-wise", GrammarOptions(bvs=True, sbos=False), True, False, budget),
        Setting("BVS + scaling", GrammarOptions(bvs=True, sbos=False), False, True, budget),
        Setting("BVS + scaling + lane-wise", GrammarOptions(bvs=True, sbos=False), True, True, budget),
        Setting("BVS + scaling + lane-wise + SBOS", GrammarOptions(bvs=True, sbos=True, k=3),
                True, True, budget),
    ]


@dataclass
class SettingResult:
    setting: str
    grammar_size: int
    seconds: float | None  # None == intractable/timeout
    found: str = ""


@dataclass
class Table5Result:
    per_isa: dict[str, list[SettingResult]] = field(default_factory=dict)

    def baseline_seconds(self, isa: str) -> float | None:
        for row in self.per_isa[isa]:
            if row.setting == "BVS":
                return row.seconds
        return None

    def speedup_over_bvs(self, isa: str, setting: str) -> float | None:
        base = self.baseline_seconds(isa)
        for row in self.per_isa[isa]:
            if row.setting == setting and row.seconds and base:
                return base / row.seconds
        return None


@functools.lru_cache(maxsize=4)
def run(
    isas: tuple[str, ...] = CORE_ISAS, budget: float = 120.0
) -> Table5Result:
    """Cached: Figure 7 derives from the same measurements."""
    return _run(isas, budget)


def _run(
    isas: tuple[str, ...] = CORE_ISAS, budget: float = 120.0
) -> Table5Result:
    dictionary = build_dictionary(CORE_ISAS)
    result = Table5Result()
    for isa in isas:
        # The dot product of the paper's sensitivity study: Table 3's
        # matmul window, one 32-bit lane per i32 of the target's vector.
        spec = matmul_window(isa)
        rows: list[SettingResult] = []
        for setting in settings(budget):
            grammar = build_grammar(spec, isa, dictionary, setting.grammar)
            options = CegisOptions(
                timeout_seconds=setting.timeout,
                lanewise=setting.lanewise,
                scale_factor=8 if setting.scaling else 1,
            )
            start = time.time()
            try:
                synth = synthesize(spec, grammar, options)
                rows.append(
                    SettingResult(
                        setting.name,
                        grammar.size(),
                        time.time() - start,
                        synth.program.describe()[:60],
                    )
                )
            except SynthesisFailure:
                rows.append(SettingResult(setting.name, grammar.size(), None))
        result.per_isa[isa] = rows
    return result


def render(result: Table5Result) -> str:
    chunks = ["Table 5: synthesis sensitivity (dot product)"]
    for isa, rows in result.per_isa.items():
        headers = ["Setting", "Grammar Ops", "Time (s)", "Synthesized"]
        body = [
            [
                r.setting,
                str(r.grammar_size),
                f"{r.seconds:.1f}" if r.seconds is not None else "timeout/intractable",
                r.found,
            ]
            for r in rows
        ]
        chunks.append(f"\n[{isa}]\n" + format_table(headers, body))
    return "\n".join(chunks)
