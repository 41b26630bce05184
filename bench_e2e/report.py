"""From samples, /stats deltas and spans to named metrics."""

from __future__ import annotations

import time
from collections import Counter

from repro import irgen
from repro.autollvm import build_dictionary
from repro.autollvm.intrinsics import dictionary_from_classes, dictionary_isas
from repro.synthesis import snode_from_obj
from repro.synthesis.translate import translate_program

from bench_e2e import oracle, spec
from bench_e2e.harness import (
    ALL_ISAS,
    Invalid,
    geomean,
    median,
    percentile,
    tree_bytes,
)
from bench_e2e.spans import layer_seconds, self_times

# Tiers whose answer ran a worker process.
WORKER_TIERS = ("l2", "synthesis", "rule")


def worked(samples: list[dict]) -> list[dict]:
    """The ok answers that ran a worker of their own."""
    return [s for s in samples
            if s["status"] == "ok" and s["tier"] in WORKER_TIERS]


def _tier_latencies(samples: list[dict], tier: str) -> list[float]:
    return [s["latency_ms"] for s in samples
            if s["status"] == "ok" and s["tier"] == tier]


def zipf_steps(samples: list[dict]) -> dict:
    """Per rate step: SLO share and whether the backlog grew."""
    out: dict = {"steps": []}
    best = None
    for step, rate in enumerate(spec.ZIPF_RATES_RPS):
        due = [s for s in samples if s["step"] == step]
        within = [
            s for s in due
            if s["status"] == "ok"
            and s["latency_ms"] <= spec.ZIPF_LATENCY_LIMIT_MS
        ]
        share = len(within) / len(due)
        # The daemon owed more when the step's last request left than
        # when its first did, beyond what two busy workers explain.
        grew = due[-1]["outstanding"] > due[0]["outstanding"] + 4
        out[f"slo_share_r{step + 1}"] = share
        answered = [s["latency_ms"] for s in worked(due)]
        out["steps"].append({
            "rate_rps": rate, "due": len(due), "slo_share": share,
            "latency_ms_p50": percentile(answered, 0.5),
            "latency_ms_p90": percentile(answered, 0.9),
            "backlog_first": due[0]["outstanding"],
            "backlog_last": due[-1]["outstanding"], "backlog_grew": grew,
        })
        if share >= spec.SLO_OK_SHARE and not grew:
            best = rate
    out["max_rate_ok_rps"] = best
    return out


def daemon_end_to_end(run: dict, mismatches: int, steps: dict | None) -> dict:
    """All fourteen end-to-end metrics of a daemon workload (None = n/a);
    ``steps`` is :func:`zipf_steps` of the samples on ``zipf_open``."""
    samples = run["samples"]
    attempted = len(samples)
    ok = [s for s in samples if s["status"] == "ok"]
    # L1 and coalesced answers are reported per tier (daemon.l1_ms_p50,
    # daemon.coalesced_ms_p50): the median of a three-tier mix flips
    # between tiers with the tier shares.
    latencies = [s["latency_ms"] for s in worked(samples)]
    runtimes = {s["job"]: s["frame"]["result"]["runtime_us"] for s in ok}
    steps = steps or {}
    return {
        "setup_s": median(run["setup_s"]),
        "wall_s": run["wall_s"],
        "latency_ms_p50": median(latencies),
        "latency_ms_p90": percentile(latencies, 0.9),
        "throughput_rps": len(ok) / run["wall_s"],
        "failed_share":
            sum(s["status"] == "failed" for s in samples) / attempted,
        "degraded_share":
            sum(s["status"] == "degraded" for s in samples) / attempted,
        "runtime_us_geomean": geomean(list(runtimes.values())),
        "peak_rss_mb": run["peak_rss_mb"],
        "program_mismatches": mismatches,
        **{name: steps.get(name) for name in (
            "slo_share_r1", "slo_share_r2", "slo_share_r3", "max_rate_ok_rps")},
    }


def daemon_layers(run: dict) -> dict:
    """Per-layer numbers the daemon pass itself yields: response
    frames, /stats deltas, the generator's own lag."""
    samples = run["samples"]
    ran = worked(samples)
    worker_ms = [s["frame"]["telemetry"]["wall_seconds"] * 1000.0 for s in ran]
    stats = run["stats"]
    return {
        "scheduler.worker_wall_ms_p50": median(worker_ms),
        "scheduler.killed": stats["killed"],
        "scheduler.worker_eofs": stats["worker_eofs"],
        "daemon.overhead_ms_p50": median(
            [s["latency_ms"] - ms for s, ms in zip(ran, worker_ms)]),
        "daemon.l2_ms_p50": median(_tier_latencies(samples, "l2")),
        "daemon.l2_ms_p90": percentile(_tier_latencies(samples, "l2"), 0.9),
        "daemon.l1_ms_p50": median(_tier_latencies(samples, "l1")),
        "daemon.l1_hits": stats["l1_hits"],
        "daemon.coalesced": stats["coalesced"],
        "daemon.coalesced_ms_p50": median(_tier_latencies(samples, "coalesced")),
        "daemon.window_deferrals": stats["window_deferrals"],
        "daemon.synthesis_ms_p50": median(_tier_latencies(samples, "synthesis")),
        "admission.rejected": stats["rejected"],
        "loadgen.lag_ms_p95": lag_ms_p95(samples),
        "store.entries_added": sum(
            s["frame"]["telemetry"]["entries_added"] for s in samples
            if s["status"] != "failed"),
        "store.bytes": tree_bytes(run["cache_dir"]),
    }


def lag_ms_p95(samples: list[dict]) -> float:
    return percentile([(s["sent"] - s["due"]) * 1000.0 for s in samples], 0.95)


# ----------------------------------------------------------------------
# Offline layers: read from the irgen store the run used
# ----------------------------------------------------------------------


def offline_layers(irgen_dir, built_in_run: bool) -> dict:
    """Load and dictionary numbers of both artifacts, timed here; the
    parse and similarity-check seconds their builder recorded only when
    this run built the store (``cold_suite``) — elsewhere the store is
    the fixture's and its build belongs to no run."""
    out = {"isa.parse_s": 0.0, "similarity.check_s": 0.0,
           "similarity.checks": 0, "irgen.load_s": 0.0,
           "autollvm.dictionary_s": 0.0}
    irgen.clear_memo()
    for isas in (ALL_ISAS[:3], ALL_ISAS):
        started = time.monotonic()
        artifact = irgen.load_artifact(
            irgen_dir, irgen.irgen_fingerprint(isas))
        out["irgen.load_s"] += time.monotonic() - started
        started = time.monotonic()
        dictionary = dictionary_from_classes(isas, artifact.classes)
        out["autollvm.dictionary_s"] += time.monotonic() - started
        if built_in_run:
            out["isa.parse_s"] += artifact.phase_seconds.get("parse", 0.0)
            out["similarity.check_s"] += artifact.phase_seconds.get("check", 0.0)
        out["similarity.checks"] += artifact.stats.checks
        # The 4-ISA artifact comes last: the totals are its.
        out["isa.specs"] = artifact.stats.instructions
        out["similarity.classes"] = len(artifact.classes)
        out["autollvm.ops"] = len(dictionary)
    return out


# ----------------------------------------------------------------------
# Span-derived layers
# ----------------------------------------------------------------------

# per-layer metric <- span names whose self time it sums
SPAN_LAYERS = {
    "halide.lower_s": ("halide.lower",),
    "grammar.build_s": ("grammar.build",),
    "cache.key_s": ("cache.key",),
    "store.open_s": ("store.open",),
    "store.lookup_s": ("store.lookup",),
    "store.write_s": ("store.write",),
    "scheduler.fork_ipc_s": ("scheduler.fork_ipc",),
    "machine.simulate_s": ("machine.simulate",),
    "backend.select_s": ("backend.select",),
    "cegis.synth_s": ("cegis.synth",),
    "cegis.enumeration_s": ("cegis.enumeration",),
    "cegis.dedup_s": ("cegis.dedup",),
    "smt.verify_s": ("smt.verify",),
    "rules.match_s": ("rules.match",),
}


def unattributed_share(spans: list[dict]) -> tuple[float, float]:
    """(share over the whole run, worst single request): request wall
    that no layer's span covers."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == "request"]
    wall = sum(s["end"] - s["start"] for s in roots)
    loose = sum(own[s["id"]] for s in roots)
    worst = max(
        (own[s["id"]] / (s["end"] - s["start"]) for s in roots), default=0.0)
    return (loose / wall if wall else 0.0), worst


def span_layers(spans: list[dict], captures: list, perf: dict) -> dict:
    """Per-layer numbers of a traced replay.

    ``captures`` are the ``tracejob.Capture`` objects of its requests,
    ``perf`` the summed ``repro.perf`` deltas of its workers."""
    seconds = layer_seconds(spans)
    out = {
        metric: sum(seconds.get(name, 0.0) for name in names)
        for metric, names in SPAN_LAYERS.items()
    }
    codec: dict[str, float] = {}
    for s in spans:
        if s["name"] == "protocol.codec":
            codec[s["trace"]] = codec.get(s["trace"], 0.0) + s["end"] - s["start"]
    out["protocol.codec_us"] = median(list(codec.values())) * 1e6
    windows = [w for capture in captures for w in capture.windows]
    count = lambda **where: sum(
        1 for w in windows
        if all(w[key] == value for key, value in where.items()))
    out.update({
        "halide.windows": len(windows),
        "grammar.size_mean": (
            sum(w["grammar_size"] for w in windows) / len(windows)
            if windows else 0.0),
        "cache.lookups": sum(c.lookups for c in captures),
        "cache.hits": sum(c.hits for c in captures),
        "cache.failure_hits": sum(c.failure_hits for c in captures),
        "cegis.candidates": perf.get("candidates_evaluated", 0),
        "cegis.candidates_per_s": (
            perf.get("candidates_evaluated", 0) / out["cegis.enumeration_s"]
            if out["cegis.enumeration_s"] else 0.0),
        "cegis.iterations": sum(w["iterations"] for w in windows),
        "cegis.windows_ok": count(outcome="ok"),
        "cegis.windows_failed": count(outcome="failed") + count(outcome="timed_out"),
        "cegis.windows_timed_out": count(outcome="timed_out"),
        "cegis.split_windows": sum(c.splits for c in captures),
        "absint.s": perf.get("seconds_absint", 0.0),
        "absint.pruned": perf.get("absint_pruned", 0),
        "reuse.cex_hits": perf.get("reuse_cex_hits", 0),
        "reuse.clause_hits": perf.get("reuse_clause_hits", 0),
        "portfolio.windows": perf.get("portfolio_windows", 0),
        "portfolio.inline_fallbacks": perf.get("portfolio_inline_fallbacks", 0),
        "smt.blast_s": perf.get("seconds_blast", 0.0),
        "smt.sat_s": perf.get("seconds_sat", 0.0),
        "smt.sat_queries": perf.get("sat_queries", 0),
        "smt.sat_conflicts": perf.get("sat_conflicts", 0),
        "smt.sat_window_ms_p50": median(
            [w["sat_seconds"] * 1000.0 for w in windows if w["sat_queries"]]),
        "rules.matches": perf.get("rule_matches", 0),
        "rules.misses": perf.get("rule_misses", 0),
        "rules.served_ms_p50": median(
            [w["seconds"] * 1000.0 for w in windows if w["verified"] == "rule"]),
    })
    consulted = out["rules.matches"] + out["rules.misses"]
    out["rules.match_share"] = out["rules.matches"] / consulted if consulted else 0.0
    for rung in ("structural", "exhaustive", "sat", "probabilistic",
                 "fuzz-battery", "rule"):
        out[f"smt.rung.{rung}"] = count(verified=rung)
    out["trace.unattributed_share"], _worst = unattributed_share(spans)
    return out


def replay_layers(name: str, run: dict, replay, requests: list[dict],
                  verdict, seed: int) -> tuple[dict, dict, list[str]]:
    """Per-layer table of a daemon workload, notes, and oracle mismatches
    among the programs the replay's cache proxy saw.

    Also the run-twice check: the compiler is deterministic, so the
    daemon run's stored programs and reported runtimes must equal the
    replay's."""
    spans = replay.recorder.spans
    reports = replay.reports
    captures = [item["capture"] for item in reports.values()]
    perf: Counter = Counter()
    counters: Counter = Counter()
    for item in reports.values():
        perf.update(item["perf"])
        counters.update(item["counters"])
    layers = dict.fromkeys((m.name for m in spec.PER_LAYER), 0.0)
    layers.update(daemon_layers(run))
    layers.update(span_layers(spans, captures, perf))
    layers["store.screened"] = counters["screened"]
    layers["store.screen_failures"] = counters["screen_failures"]
    if name == "cold_suite":
        layers["irgen.build_s"] = run["irgen_build_s"]
        if layers["cegis.windows_timed_out"]:
            raise Invalid(f"cold_suite: {layers['cegis.windows_timed_out']} "
                          "windows timed out")

    def decode(isa, obj):
        return snode_from_obj(obj, build_dictionary(dictionary_isas(isa)))

    served = [pair for capture in captures for pair in capture.served]
    replayed = oracle.check_served(served, seed, decode)
    differing = [
        key for key, signature in replayed.signatures.items()
        if verdict.signatures.get(key, signature) != signature
    ]
    runtime_us = {s["job"]: s["frame"]["result"]["runtime_us"]
                  for s in run["samples"] if s["status"] == "ok"}
    worker_seconds: dict = {}
    for s in worked(run["samples"]):
        worker_seconds.setdefault(s["job"], []).append(
            s["frame"]["telemetry"]["wall_seconds"])
    traced_wall = untraced_wall = 0.0
    for trace_id, item in reports.items():
        request = requests[int(trace_id[1:])]
        job = (request["benchmark"], request["isa"])
        if runtime_us.get(job, item["runtime_us"]) != item["runtime_us"]:
            differing.append(f"runtime_us of {job}")
        if job in worker_seconds:
            traced_wall += item["wall_seconds"]
            untraced_wall += median(worker_seconds[job])
    if differing:
        raise Invalid(f"{name}: daemon run and replay disagree on {differing}")
    if untraced_wall:
        layers["trace.overhead_share"] = traced_wall / untraced_wall - 1.0

    started = time.monotonic()
    for isa, window, obj in served:
        translate_program(decode(isa, obj), "window", window.type.elem_width)
    layers["translate.s"] = time.monotonic() - started
    layers.update(offline_layers(run["irgen_dir"], name == "cold_suite"))

    notes = {
        "replayed_requests": len(requests),
        "replay_tiers": dict(Counter(replay.tiers.values())),
        "layer_self_seconds": layer_seconds(spans),
        "unattributed_worst_request": unattributed_share(spans)[1],
        "oracle_checked_replay": replayed.checked,
    }
    return layers, notes, list(replayed.mismatches)
