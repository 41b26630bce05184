"""Process-global performance counters for the synthesis hot path.

The counter set mirrors the phases of one CEGIS run:

* ``enumeration`` — growing the candidate pool (grammar productions),
* ``dedup``       — observational-equivalence signature work,
* ``blast``       — Tseitin bit-blasting of terms to CNF,
* ``sat``         — CDCL solving,
* ``verify``      — the full verification ladder around the solver.

Event counters count *things*, timers accumulate *seconds*.  Both are
plain floats/ints guarded by the GIL — the synthesis core is
single-threaded per process, and the service's worker processes each
carry their own instance, so no locking is needed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields


PHASES = (
    "enumeration", "dedup", "blast", "sat", "verify",
    # Offline IR generation (repro.irgen): spec parse/canonicalize,
    # constant extraction, shard bucketing, pass-1/2 equivalence checking,
    # hole refinement, deterministic merge, and artifact loading.
    "irgen_parse", "irgen_extract", "irgen_bucket", "irgen_check",
    "irgen_refine", "irgen_merge", "irgen_load",
)


@dataclass
class PerfCounters:
    """Cumulative hot-path totals for one process.

    Every field but ``phase_seconds`` is an event counter; ``snapshot``
    and ``reset`` derive from the field list, so a counter is declared
    here once.
    """

    # Per-phase wall time in seconds.
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in PHASES}
    )
    # Candidate programs evaluated against the counterexample set.
    candidates_evaluated: int = 0
    # Bit-blaster structural cache.
    blast_cache_hits: int = 0
    blast_cache_misses: int = 0
    # SAT solving.
    sat_queries: int = 0
    sat_conflicts: int = 0
    # Modern-CDCL events: restarts fired and learned clauses deleted by
    # LBD database reduction.
    sat_restarts: int = 0
    sat_clauses_deleted: int = 0
    # Learned clauses alive in persistent solver contexts.
    learned_clauses_retained: int = 0
    # Lane-symmetric proofs (repro.smt.solver): lane classes decided by
    # bit-parallel simulation, lane-class CDCL queries run,
    # decompositions that fell back to the whole-vector query, and CEGIS
    # full-width checks proved without sampling vs sampled.
    lane_class_simulations: int = 0
    lane_class_queries: int = 0
    lane_fallbacks: int = 0
    full_width_proved: int = 0
    full_width_sampled: int = 0
    # CEGIS searches started: windows that neither a cache nor a rule
    # answered (what a compile job reports as ``synth_calls``).
    cegis_searches: int = 0
    # CEGIS searches whose scaled spec compiled to packed form for
    # refutation, and searches whose spec declined (refuted on the
    # interpreter instead).
    cegis_specs_compiled: int = 0
    cegis_specs_declined: int = 0
    # Hash-consing: term constructions served from the intern table.
    term_intern_hits: int = 0
    term_intern_misses: int = 0
    # Rewrite-rule engine (repro.synthesis.rules): windows served by a
    # verified rule ahead of CEGIS, windows that consulted the rulebook
    # and fell through to synthesis, rules admitted by the offline
    # distiller, and candidate rules its verifier rejected.
    rule_matches: int = 0
    rule_misses: int = 0
    rule_distilled: int = 0
    rule_verify_failures: int = 0
    # Fault plane (repro.faults): faults actually fired in this process,
    # and failures — injected or real — absorbed by a hardened recovery
    # path (corrupt entry skipped, stale tmp reaped, dead pipe routed to
    # fallback, stale negative entry ignored).
    faults_injected: int = 0
    fault_recoveries: int = 0
    # Vendor specs parsed + canonicalised (isa.registry.parse_spec).  A
    # worker forked from a warm parent must report zero: the dictionary
    # comes from the irgen artifact or the parent, never from a re-parse.
    specs_parsed: int = 0
    # How parsed specs were lowered (repro.isa.pseudo_core): the
    # destination loop nest lowered as loops, or unrolled into a
    # concatenation that canonicalisation re-rolls.  Specs with neither
    # (one assignment, one iteration) count in no field.
    specs_lowered_direct: int = 0
    specs_rerolled: int = 0
    # Grammars whose entries were computed (the BVS/SBOS scan of
    # repro.synthesis.grammar).  A worker answering a fully cached job
    # must report zero: a hit never reads the grammar.
    grammar_builds: int = 0

    # ------------------------------------------------------------------

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    @contextmanager
    def timer(self, phase: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.add_phase(phase, time.monotonic() - start)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """A flat, JSON-ready copy of every counter."""
        out: dict[str, float] = {
            f"seconds_{name}": round(value, 6)
            for name, value in self.phase_seconds.items()
        }
        for name in _COUNTER_NAMES:
            out[name] = getattr(self, name)
        return out

    def reset(self) -> None:
        for name in list(self.phase_seconds):
            self.phase_seconds[name] = 0.0
        for name in _COUNTER_NAMES:
            setattr(self, name, 0)


_COUNTER_NAMES = tuple(
    f.name for f in fields(PerfCounters) if f.name != "phase_seconds"
)


_GLOBAL = PerfCounters()


def global_counters() -> PerfCounters:
    return _GLOBAL


def phase_timer(phase: str):
    """Context manager timing a region into the global counters."""
    return _GLOBAL.timer(phase)


def snapshot() -> dict[str, float]:
    return _GLOBAL.snapshot()


def snapshot_delta(before: dict[str, float]) -> dict[str, float]:
    """Difference between the current totals and an earlier snapshot."""
    now = _GLOBAL.snapshot()
    return {key: round(now[key] - before.get(key, 0), 6) for key in now}


def derived_metrics(delta: dict[str, float]) -> dict[str, float]:
    """Human-facing rates computed from a snapshot delta."""
    blast_total = delta.get("blast_cache_hits", 0) + delta.get(
        "blast_cache_misses", 0
    )
    enum_seconds = delta.get("seconds_enumeration", 0.0)
    candidates = delta.get("candidates_evaluated", 0)
    return {
        "blast_cache_hit_rate": (
            delta.get("blast_cache_hits", 0) / blast_total if blast_total else 0.0
        ),
        "learned_clauses_retained": delta.get("learned_clauses_retained", 0),
        "candidates_per_sec": (
            candidates / enum_seconds if enum_seconds > 0 else 0.0
        ),
    }
