"""The four workloads: what each sends, and the daemon pass that sends it.

Everything a run sends derives from ``--seed``: the order of the job
list, the zipf draws, tenants and arrival instants, and (in
``oracle.py``) the oracle's inputs.  The *set* of jobs is fixed — the
driver compares runs at different seeds, and a compile job's cost spans
three orders of magnitude, so a free draw would measure the draw.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.daemon.client import http_get

from bench_e2e import loadgen, oracle, report, spec
from bench_e2e.harness import (
    OUT_DIR,
    Invalid,
    build_irgen,
    children_peak_rss_mb,
    classify,
    daemon,
    scratch,
    source_digest,
    stats_delta,
    write_json,
)
from bench_e2e.tracejob import replay_requests

# The job population: two Figure 6 benchmarks on each of the four ISAs.
# Picked at build time from the 33 x 4 (benchmark, isa) grid as the jobs
# whose every window synthesizes cold in 1-4 s — far under a third of
# the 60 s budget, so no result depends on where a wall-clock timeout
# lands.  Most of the grid costs 10-80 s per job cold, and several rvv
# jobs fail outright (KeyError in the generic glue path), which a
# benchmark workload must not contain.
POPULATION: tuple[tuple[str, str], ...] = tuple(
    (benchmark, isa)
    for isa in ("x86", "hvx", "arm", "rvv")
    for benchmark in ("max_pool", "average_pool")
)

# cold_suite compiles one job per ISA: the cold pass is about 10 s at
# --jobs 1 on top of a 12-18 s cold irgen build, and the driver's cap
# (92 runs in 3420 s) has no room for the whole population in every run.
COLD_JOBS = tuple(job for job in POPULATION if job[0] == "average_pool")

# zipf_open draws from the population's hvx, arm and rvv jobs only.  A
# warm replay costs 0.33-0.46 s on those and 0.9 s on x86 (the size of
# the vendor catalog each worker re-parses), and a latency quantile of a
# two-cluster mix flips between clusters from seed to seed; cold_suite
# and warm_l2 are where x86 is measured.
ZIPF_POPULATION = tuple(job for job in POPULATION if job[1] != "x86")

SYNTH_TIMEOUT = 60.0
SETUP_REPEATS = 3
# zipf_open's --l1-capacity: a quarter of its population.
L1_QUARTER = max(1, len(ZIPF_POPULATION) // 4)


def request_for(job: tuple[str, str], tenant: str = "default") -> dict:
    benchmark, isa = job
    return {"benchmark": benchmark, "isa": isa, "compiler": "hydride",
            "tenant": tenant, "retries": 0}


def job_list(jobs: tuple, seed: int, quick: bool) -> list[tuple[str, str]]:
    """``jobs`` in a seeded order (``quick``: the first two; one job
    alone would hit L1 on its own repeat)."""
    ordered = list(jobs)
    random.Random(seed).shuffle(ordered)
    return ordered[:2] if quick else ordered


# ----------------------------------------------------------------------
# The warm fixture: a cache the population was compiled into, cold
# ----------------------------------------------------------------------


def ensure_fixture() -> Path:
    """Directory holding ``irgen/`` (both artifacts) and ``cache/`` (the
    population, synthesized cold through a real daemon).

    Built once per checkout — the first run pays, like a compile step —
    and keyed on the program's sources, so a fixture another version of
    the code wrote is never replayed."""
    key = source_digest(json.dumps([POPULATION, SYNTH_TIMEOUT]))
    root = OUT_DIR / f"fixture-{key}"
    if (root / "ready.json").is_file():
        return root
    staging = Path(tempfile.mkdtemp(prefix="staging-", dir=OUT_DIR))
    try:
        irgen_seconds = build_irgen(staging / "irgen")
        jobs = list(POPULATION)
        started = time.monotonic()
        with daemon(staging / "cache", staging / "irgen", 2,
                    ["--synth-timeout", str(SYNTH_TIMEOUT)]) as proc:
            samples = loadgen.closed_loop(
                proc.addr, [request_for(j) for j in jobs], connections=2)
        classify(samples)
        bad = [s["request"] for s in samples if s["status"] != "ok"]
        if bad:
            raise Invalid(f"fixture build: jobs not compiled cleanly: {bad}")
        (staging / "ready.json").write_text(json.dumps({
            "irgen_seconds": irgen_seconds,
            "cold_seconds": time.monotonic() - started,
            "runtime_us": {"/".join(s["job"]): s["frame"]["result"]["runtime_us"]
                           for s in samples},
        }, indent=1, sort_keys=True))
        os.replace(staging, root)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return root


# ----------------------------------------------------------------------
# Daemon passes
# ----------------------------------------------------------------------


def _timed(proc, drive) -> dict:
    before = http_get(proc.addr, "/stats")
    started = time.monotonic()
    samples = drive(proc.addr)
    wall = time.monotonic() - started
    classify(samples)
    return {"samples": samples, "wall_s": wall,
            "stats": stats_delta(before, http_get(proc.addr, "/stats"))}


def cold_suite_pass(work: Path, seed: int, quick: bool) -> dict:
    """Empty stores, ``--jobs 1``, one connection, one request in flight."""
    cache_dir, irgen_dir = work / "cache", work / "irgen"
    jobs = job_list(COLD_JOBS, seed, quick)
    started = time.monotonic()
    irgen_build = build_irgen(irgen_dir)
    with daemon(cache_dir, irgen_dir, 1,
                ["--synth-timeout", str(SYNTH_TIMEOUT)]) as proc:
        setup = time.monotonic() - started
        run = _timed(proc, lambda addr: loadgen.closed_loop(
            addr, [request_for(j) for j in jobs], connections=1))
    run.update(setup_s=[setup], jobs=jobs, cache_dir=cache_dir,
               irgen_dir=irgen_dir, irgen_build_s=irgen_build,
               peak_rss_mb=children_peak_rss_mb())
    return run


def _warm_pass(work: Path, l1_capacity: int, drive) -> dict:
    """``drive`` against a ``--jobs 2`` daemon restarted on a copy of the
    fixture cache; set-up is the start-to-ready wall of that restart,
    made ``SETUP_REPEATS`` times (the measured run's own start last)."""
    fixture = ensure_fixture()
    cache_dir, irgen_dir = work / "cache", fixture / "irgen"
    shutil.copytree(fixture / "cache", cache_dir)
    extra = ["--l1-capacity", str(l1_capacity),
             "--synth-timeout", str(SYNTH_TIMEOUT)]
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        started = time.monotonic()
        with daemon(cache_dir, irgen_dir, 2, extra):
            setups.append(time.monotonic() - started)
    started = time.monotonic()
    with daemon(cache_dir, irgen_dir, 2, extra) as proc:
        setups.append(time.monotonic() - started)
        run = _timed(proc, drive)
    run.update(setup_s=setups, cache_dir=cache_dir, irgen_dir=irgen_dir,
               peak_rss_mb=children_peak_rss_mb())
    return run


def warm_l2_pass(work: Path, seed: int, seconds: float, quick: bool) -> dict:
    """L1 of one entry; two closed-loop connections round-robin over the
    job list in whole passes, so every request misses L1 and replays
    from the persistent store, and every job is asked for equally often."""
    jobs = job_list(POPULATION, seed, quick)
    # Two jobs (quick) alternate on one connection: on two they would be
    # in flight together and the repeat would hit L1.
    run = _warm_pass(work, 1, lambda addr: loadgen.closed_loop(
        addr, [request_for(j) for j in jobs],
        connections=2 if len(jobs) > 2 else 1, seconds=seconds))
    run["jobs"] = jobs
    return run


def zipf_jobs(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``count`` jobs in zipf(1.1) proportions over the population's
    fixed rank order, in a seeded order.

    Systematic sampling (one random phase, then even steps through the
    CDF) instead of independent draws: every seed sends the same mix to
    within one request per job, so runs at different seeds differ in
    order and timing, not in how much work they were dealt."""
    weights = [1.0 / (k ** spec.ZIPF_EXPONENT)
               for k in range(1, len(ZIPF_POPULATION) + 1)]
    total = sum(weights)
    phase = rng.random()
    jobs = []
    rank, cumulative = 0, weights[0] / total
    for index in range(count):
        point = (index + phase) / count
        while point > cumulative and rank < len(ZIPF_POPULATION) - 1:
            rank += 1
            cumulative += weights[rank] / total
        jobs.append(ZIPF_POPULATION[rank])
    rng.shuffle(jobs)
    return jobs


def zipf_schedule(seed: int, step_seconds: float) -> list[dict]:
    """Poisson arrivals at three fixed rates, zipf(1.1) over the
    population, four tenants on two connections.

    Each step's arrival count is pinned to rate x length and the
    instants drawn uniformly within it — a Poisson process conditioned
    on its count — so every seed offers the same load.  Each step opens
    with one tail job asked for by two tenants 10 ms apart (a fan-in),
    so coalescing happens in every run, not only at seeds where two
    arrivals for a cold job happen to overlap."""
    rng = random.Random(seed)
    arrivals = []  # (at, step)
    for step, rate in enumerate(spec.ZIPF_RATES_RPS):
        begin = step * step_seconds
        arrivals += sorted(
            (begin + rng.random() * step_seconds, step)
            for _ in range(round(rate * step_seconds))
        )
    jobs = zipf_jobs(rng, len(arrivals))
    for step in range(len(spec.ZIPF_RATES_RPS)):
        tail = ZIPF_POPULATION[-1 - step]
        begin = step * step_seconds
        arrivals += [(begin, step), (begin + 0.010, step)]
        jobs += [tail, tail]
    schedule = []
    for (at, step), job in zip(arrivals, jobs):
        tenant = rng.randrange(spec.ZIPF_TENANTS)
        schedule.append({
            "at": at, "step": step, "conn": tenant % 2,
            "request": request_for(job, tenant=f"tenant{tenant}"),
        })
    schedule.sort(key=lambda item: item["at"])
    return schedule


def zipf_open_pass(work: Path, seed: int, seconds: float) -> dict:
    """L1 of a quarter of the population; open loop from two connections
    carrying four tenants."""
    schedule = zipf_schedule(seed, seconds / len(spec.ZIPF_RATES_RPS))
    run = _warm_pass(work, L1_QUARTER, lambda addr: loadgen.open_loop(
        addr, schedule, connections=2,
        drain_seconds=2 * spec.ZIPF_LATENCY_LIMIT_MS / 1000.0))
    run.update(jobs=sorted({s["job"] for s in run["samples"]}),
               schedule=schedule)
    return run


# ----------------------------------------------------------------------
# One daemon workload, start to numbers
# ----------------------------------------------------------------------


def _guards(name: str, run: dict) -> None:
    """Fail the run when the workload's mechanism did not fire."""
    samples, stats = run["samples"], run["stats"]
    if name == "cold_suite":
        longest = max(s["frame"]["telemetry"]["wall_seconds"]
                      for s in samples if s["status"] != "failed")
        if longest >= SYNTH_TIMEOUT:
            raise Invalid(
                f"cold_suite: a job ran {longest:.0f} s, as long as the "
                "synthesis budget; a window may have timed out")
    elif name == "warm_l2":
        if stats["synth_calls"] or stats["l1_hits"]:
            raise Invalid(
                f"warm_l2: {stats['synth_calls']} synthesis calls and "
                f"{stats['l1_hits']} L1 hits on a run that must have neither")
    else:
        missing = {"l1", "l2", "coalesced"} - {s.get("tier") for s in samples}
        if missing:
            raise Invalid(f"zipf_open: no answer from tier(s) {sorted(missing)}")
        lag = report.lag_ms_p95(samples)
        if lag > spec.LAG_CAP_MS:
            raise Invalid(
                f"zipf_open: generator lag p95 {lag:.1f} ms exceeds "
                f"{spec.LAG_CAP_MS:.0f} ms; the host disturbed the schedule")


def run(name: str, seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    """Daemon pass, (traced replay,) oracle, guards, metrics."""
    with scratch(name) as work:
        if name == "cold_suite":
            result = cold_suite_pass(work, seed, quick)
        elif name == "warm_l2":
            result = warm_l2_pass(work, seed, seconds, quick)
        else:
            result = zipf_open_pass(work, seed, seconds)
        samples = result["samples"]
        replay = None
        if trace:
            # Before the oracle: it would warm this process, and the
            # replay forks its workers from it.
            requests = [request_for(job) for job in result["jobs"]]
            cache_dir, capacity = result["cache_dir"], 1
            if name == "cold_suite":
                cache_dir, capacity = work / "replay-cache", 512
            elif name == "zipf_open":
                capacity = L1_QUARTER
                requests = [item["request"] for item in result["schedule"][:50]]
            replay = replay_requests(requests, cache_dir, capacity,
                                     result["irgen_dir"], SYNTH_TIMEOUT)
        os.environ["REPRO_IRGEN_CACHE"] = str(result["irgen_dir"])
        verdict = oracle.check_cache_dir(
            result["jobs"], str(result["cache_dir"]), seed)
        _guards(name, result)
        mismatches = list(verdict.mismatches)
        notes = {
            "tiers": dict(Counter(s.get("tier", "failed") for s in samples)),
            "setups": result["setup_s"],
            "oracle_checked": verdict.checked,
            "samples": [
                {"job": "/".join(s["job"]),
                 "step": s.get("step"), "status": s["status"],
                 "tier": s.get("tier"), "latency_ms": s.get("latency_ms")}
                for s in samples
            ],
        }
        layers = None
        if replay is not None:
            layers, more_notes, more = report.replay_layers(
                name, result, replay, requests, verdict, seed)
            notes.update(more_notes)
            mismatches += more
            write_json(OUT_DIR / f"trace-{name}.json", replay.recorder.spans)
        steps = None
        if name == "zipf_open":
            steps = report.zipf_steps(samples)
            notes["steps"] = steps.pop("steps")
        e2e = report.daemon_end_to_end(result, len(mismatches), steps)
    return {"e2e": e2e, "layers": layers, "attempted": len(samples),
            "failed": sum(s["status"] == "failed" for s in samples),
            "mismatches": mismatches, "notes": notes}
