"""``near_miss_windows``: the library path, where rules and SMT do the work.

The daemon only accepts registry benchmark names, so this workload calls
``build_grammar`` + ``synthesize`` in-process with a ``PersistentCache``
and a ``RuleBook``.  Set-up synthesizes a seed family cold and distils
it; the timed stream is a seeded shuffle of

* windows the exact-key cache has never seen but a distilled rule
  covers (unseen constants, doubled lanes) — miss -> rule -> write-back;
* algebraic identities no rule covers, whose candidate is not
  structurally equal to the spec, so verification has to reach the CDCL
  rung.

The stream is replayed, each round on a fresh copy of the seed store
(the write-back would turn a second pass into exact-key hits), until
``--seconds`` is spent.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from repro import perf
from repro.autollvm import build_dictionary
from repro.autollvm.intrinsics import dictionary_isas
from repro.halide import ir as hir
from repro.service.store import PersistentCache
from repro.synthesis import (
    CegisOptions,
    SynthesisFailure,
    build_grammar,
    synthesize,
)
from repro.synthesis.rules import distill_rules, load_rulebook
from repro.synthesis.translate import translate_program

from bench_e2e import oracle, report, spec
from bench_e2e.harness import (
    OUT_DIR,
    Invalid,
    geomean,
    median,
    percentile,
    scratch,
    self_peak_rss_mb,
    write_json,
)
from bench_e2e.spans import Recorder, SpanProxy, layer_seconds, timed
from bench_e2e.tracejob import (
    RULES_SPANS,
    CacheProxy,
    Capture,
    traced_synthesize,
)
from bench_e2e.workloads import ensure_fixture

ISA = "x86"
LANES, WIDTH = 8, 16
SEED_OPS = ("add", "mul")
SEED_CONSTS = (3, 5, 9)
SETUP_REPEATS = 3
OPTIONS = CegisOptions(timeout_seconds=25.0)


def _load(name: str, lanes: int = LANES) -> hir.HExpr:
    return hir.HLoad(name, lanes, WIDTH)


def seed_family() -> list[hir.HExpr]:
    return [
        hir.HBin(op, _load("a"), hir.HConst(c, LANES, WIDTH))
        for op in SEED_OPS for c in SEED_CONSTS
    ]


def rule_windows(rng: random.Random) -> list[hir.HExpr]:
    """Per seed op: two unseen constants and one doubled-lane window."""
    unseen = [c for c in range(10, 120) if c not in SEED_CONSTS]
    windows = []
    for op in SEED_OPS:
        first, second, wide = rng.sample(unseen, 3)
        windows += [
            hir.HBin(op, _load("a"), hir.HConst(first, LANES, WIDTH)),
            hir.HBin(op, _load("a"), hir.HConst(second, LANES, WIDTH)),
            hir.HBin(op, _load("a", 2 * LANES),
                     hir.HConst(wide, 2 * LANES, WIDTH)),
        ]
    return windows


def identity_windows() -> list[hir.HExpr]:
    """Bit-trick spellings of ``a + b``: the cheapest program is one add
    that shares no structure with the spec, so equivalence is decided by
    CDCL (0.1-0.4 s, 500-2000 conflicts each at 8 and 16 bits; the
    32-bit carry chain exhausts the conflict budget and falls to the
    fuzz battery)."""
    windows = []
    for lanes, width in ((8, 16), (16, 8)):
        a, b = hir.HLoad("a", lanes, width), hir.HLoad("b", lanes, width)
        both = hir.HBin("and", a, b)
        carry = hir.HBin("shl", both, hir.HConst(1, lanes, width))
        windows += [
            hir.HBin("add", hir.HBin("xor", a, b), carry),
            hir.HBin("add", hir.HBin("or", a, b), both),
            hir.HBin("add", hir.HBin("add", hir.HBin("xor", a, b), both), both),
        ]
    a, b = hir.HLoad("a", 4, 32), hir.HLoad("b", 4, 32)
    carry = hir.HBin("shl", hir.HBin("and", a, b), hir.HConst(1, 4, 32))
    windows.append(hir.HBin("add", hir.HBin("xor", a, b), carry))
    return windows


def stream(seed: int, quick: bool = False) -> list[hir.HExpr]:
    rng = random.Random(seed)
    windows = rule_windows(rng) + identity_windows()
    if quick:
        windows = [windows[0], identity_windows()[0]]
    rng.shuffle(windows)
    return windows


# ----------------------------------------------------------------------


def setup(root: Path, dictionary) -> dict:
    """Seed-family synthesis into ``root`` + distillation beside it."""
    started = time.monotonic()
    cache = PersistentCache(root, ISA, dictionary)
    for window in seed_family():
        synthesize(window, build_grammar(window, ISA, dictionary), OPTIONS,
                   cache, dictionary=dictionary)
    distill_started = time.monotonic()
    book, _report = distill_rules(
        cache._entries.items(), ISA, fingerprint=cache.fingerprint, seed=7
    )
    book.save(cache.dir)
    done = time.monotonic()
    return {"setup_s": done - started, "distill_s": done - distill_started,
            "rules": len(book)}


def run_round(seed_root: Path, round_root: Path, windows, dictionary,
              recorder: Recorder | None) -> dict:
    """One pass of the stream on a fresh copy of the seed store."""
    shutil.copytree(seed_root, round_root)
    cache = PersistentCache(round_root, ISA, dictionary)
    book = load_rulebook(cache.dir, dictionary,
                         expect_fingerprint=cache.fingerprint, use_cache=False)
    capture = Capture()
    grammar_of, synth = build_grammar, synthesize
    if recorder is not None:
        cache = CacheProxy(cache, recorder, capture)
        book = SpanProxy(book, recorder, RULES_SPANS)
        grammar_of = timed(recorder, "grammar.build", build_grammar)
        synth = traced_synthesize(recorder, capture, synthesize)
    samples = []
    started = time.monotonic()
    for index, window in enumerate(windows):
        sample = {"window": window, "program": None, "cost": None}
        begin = time.monotonic()
        if recorder is not None:
            recorder.trace = f"w{index}"
        try:
            with recorder.span("request") if recorder else nullcontext():
                result = synth(window, grammar_of(window, ISA, dictionary),
                               OPTIONS, cache, dictionary=dictionary,
                               rules=book)
            sample.update(program=result.program, cost=result.cost,
                          verified=result.stats.verified)
        except SynthesisFailure:
            pass
        sample["latency_ms"] = (time.monotonic() - begin) * 1000.0
        samples.append(sample)
    return {"samples": samples, "wall_s": time.monotonic() - started,
            "capture": capture}


def run(seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    """Set-ups, timed rounds (one traced round with ``trace``), oracle,
    guards, metrics."""
    fixture = ensure_fixture()
    os.environ["REPRO_IRGEN_CACHE"] = str(fixture / "irgen")
    dictionary = build_dictionary(dictionary_isas(ISA))
    windows = stream(seed, quick)
    recorder = Recorder() if trace else None
    with scratch("near_miss_windows") as work:
        setups = [setup(work / f"seed{i}", dictionary)
                  for i in range(1 if quick else SETUP_REPEATS)]
        before = perf.snapshot()
        rounds = []
        deadline = time.monotonic() + seconds
        # Traced: one round — one of each window is the attribution.
        while not rounds or (not trace and time.monotonic() < deadline):
            rounds.append(run_round(
                work / "seed0", work / f"round{len(rounds)}", windows,
                dictionary, recorder))
        counters = perf.snapshot_delta(before)
    if not counters["rule_matches"]:
        raise Invalid("near_miss_windows: no window was served by a rule")
    if not counters["sat_conflicts"]:
        raise Invalid("near_miss_windows: verification never reached CDCL")

    samples = [s for r in rounds for s in r["samples"]]
    ok = [s for s in samples if s["program"] is not None]
    first = [s for s in rounds[0]["samples"] if s["program"] is not None]
    # Every round serves the same programs: one check per window.
    rng = random.Random(seed)
    mismatches = [str(s["window"]) for s in first
                  if not oracle.agrees(s["window"], s["program"], rng)]
    wall = median([r["wall_s"] for r in rounds])
    latencies = [s["latency_ms"] for s in ok]
    e2e = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "wall_s": wall,
        "latency_ms_p50": percentile(latencies, 0.5),
        "latency_ms_p90": percentile(latencies, 0.9),
        "throughput_rps": len(ok) / len(rounds) / wall,
        "failed_share": 1.0 - len(ok) / len(samples),
        "degraded_share": 0.0,
        # No kernel to simulate on the library path: the cost model's
        # latency sum of each synthesized program stands in.
        "runtime_us_geomean": geomean([s["cost"] for s in first]),
        "peak_rss_mb": self_peak_rss_mb(),
        "program_mismatches": len(mismatches),
        "slo_share_r1": None, "slo_share_r2": None, "slo_share_r3": None,
        "max_rate_ok_rps": None,
    }
    notes = {
        "rounds": len(rounds), "windows_per_round": len(windows),
        "setups": [s["setup_s"] for s in setups],
        "verified": dict(Counter(
            s.get("verified", "failed") for s in rounds[0]["samples"])),
    }
    layers = None
    if recorder is not None:
        spans = recorder.spans
        layers = dict.fromkeys((m.name for m in spec.PER_LAYER), 0.0)
        layers.update(report.span_layers(spans, [rounds[0]["capture"]], counters))
        started = time.monotonic()
        for s in first:
            translate_program(s["program"], "window", s["window"].type.elem_width)
        layers["translate.s"] = time.monotonic() - started
        layers.update(report.offline_layers(fixture / "irgen", False))
        layers["rules.distill_s"] = median([s["distill_s"] for s in setups])
        layers["rules.rules"] = setups[0]["rules"]
        notes.update(
            layer_self_seconds=layer_seconds(spans),
            unattributed_worst_request=report.unattributed_share(spans)[1])
        write_json(OUT_DIR / "trace-near_miss_windows.json", spans)
    return {"e2e": e2e, "layers": layers, "attempted": len(samples),
            "failed": len(samples) - len(ok), "mismatches": mismatches,
            "notes": notes}
