#!/usr/bin/env python
"""End-to-end daemon proof for CI (the ``daemon-smoke`` job).

Drives a real ``repro.daemon`` subprocess through the serving story the
design promises, asserting at each step:

1. **cross-client dedup** — two concurrent clients submit the *same*
   batch; the daemon must run exactly one synthesis per unique job
   (``runs.jobs`` == unique jobs) and answer both clients (followers
   coalesce in-flight or hit L1 after the fact);
2. **L1** — a second pass over the same daemon is served entirely from
   the in-memory tier with zero synthesis;
3. **cache packs** — ``pack export`` from the warm cache, then a
   *fresh* daemon with ``--warm-pack`` serves the same batch with zero
   synthesis calls (the fleet warm-up story);
4. **warm fork** — that daemon is restarted on its now-warm cache and
   the batch replayed several times at default admission limits: every
   answer comes from L2, no worker parses a vendor spec
   (``runs.perf.specs_parsed == 0``) or scans a grammar
   (``runs.perf.grammar_builds == 0``: a hit never reads one) and
   nothing is rate-limited (``admission.rejected.rate == 0``) — counts,
   not timings;
5. **rot** — one stored entry is rewritten with a well-typed but wrong
   program (a constant of the entry's width); a daemon restarted on that
   cache must refute it on lookup (``runs.cache_screen_failures >= 1``),
   re-synthesize (``runs.synth_calls >= 1``) and answer every request
   with the same ``runtime_us`` as the warm replay;
6. **drain** — every daemon exits 0 on SIGTERM;
7. **cache layout** — after every phase each cache root holds only
   registered-ISA directories and ``stats.json`` (the layout
   ``repro.service.store`` documents), so a component writing anywhere
   else fails the job.

Scrapes ``/stats`` after each phase and writes them as a JSON artifact.

Usage::

    PYTHONPATH=src python scripts/daemon_smoke.py --out reports/daemon-stats.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.daemon.client import DaemonClient, http_get  # noqa: E402
from repro.daemon.proc import DaemonProcess  # noqa: E402
from repro.isa.registry import supported_isas  # noqa: E402
from repro.service.store import STATS_FILE  # noqa: E402
from repro.synthesis.cache import parse_window  # noqa: E402


def _requests(benchmarks: list[str], isa: str) -> list[dict]:
    return [{"benchmark": name, "isa": isa} for name in benchmarks]


def _submit_batch(
    addr: str, requests: list[dict], tenant: str, out: dict
) -> None:
    with DaemonClient.connect(addr, timeout=600.0) as client:
        out[tenant] = client.submit_many(requests, tenant=tenant)


def _check_layout(root: Path, phase: str, failures: list[str]) -> None:
    """A cache root holds registered-ISA directories and ``stats.json``."""
    stray = sorted(
        p.name
        for p in root.iterdir()
        if not (p.is_dir() and p.name in supported_isas()
                or p.is_file() and p.name == STATS_FILE)
    )
    if stray:
        failures.append(
            f"{phase}: {root.name} holds {stray} outside the store layout"
        )


def _rot_one_entry(root: Path) -> str:
    """Replace the first stored program with a constant of its width.

    The file stays parseable and the program well-typed (same output
    width, no unknown inputs), so only evaluating it can tell it is
    wrong.  Returns the rewritten entry's key.
    """
    path = sorted(root.glob("*/*/e-*.json"))[0]
    obj = json.loads(path.read_text())
    _isa, window = parse_window(obj["key"])
    obj["program"] = {
        "kind": "const",
        "value": 0,
        "lanes": window.type.lanes,
        "elem_width": window.type.elem_width,
    }
    path.write_text(json.dumps(obj, sort_keys=True))
    return obj["key"]


def _runtimes(frames: list[dict]) -> dict[str, float]:
    return {
        f["result"]["benchmark"]: f["result"]["runtime_us"]
        for f in frames if f.get("ok")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--benchmarks", default="add,mul")
    parser.add_argument("--isa", default="x86")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--synth-timeout", type=float, default=15.0)
    parser.add_argument("--out", default=None, help="stats artifact path")
    args = parser.parse_args(argv)

    benchmarks = [s for s in args.benchmarks.split(",") if s]
    requests = _requests(benchmarks, args.isa)
    work = Path(tempfile.mkdtemp(prefix="repro-daemon-smoke-"))
    warm_cache = work / "cache-a"
    fresh_cache = work / "cache-b"
    pack_path = work / "warm.pack"
    extra = ["--synth-timeout", str(args.synth_timeout)]
    failures: list[str] = []
    artifact: dict = {"benchmarks": benchmarks, "isa": args.isa}

    # ------------------------------------------------------------------
    # Phase 1+2: cold daemon; concurrent duplicate clients; L1 repass.
    # ------------------------------------------------------------------
    with DaemonProcess(
        cache_dir=str(warm_cache), jobs=args.jobs, extra_args=extra
    ) as daemon:
        print(f"[smoke] cold daemon at {daemon.addr}")
        batches: dict = {}
        start = time.monotonic()
        threads = [
            threading.Thread(
                target=_submit_batch,
                args=(daemon.addr, requests, tenant, batches),
            )
            for tenant in ("tenant-a", "tenant-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - start
        for tenant in ("tenant-a", "tenant-b"):
            frames = batches.get(tenant, [])
            bad = [f for f in frames if not f.get("ok")]
            if len(frames) != len(requests) or bad:
                failures.append(
                    f"{tenant}: {len(frames)}/{len(requests)} answers, "
                    f"errors {[f.get('error') for f in bad]}"
                )
        stats = http_get(daemon.addr, "/stats")
        artifact["cold"] = stats
        _check_layout(warm_cache, "cold pass", failures)
        daemon_counters = stats["daemon"]
        unique = len(requests)
        if stats["runs"]["jobs"] != unique:
            failures.append(
                f"dedup: {stats['runs']['jobs']} syntheses for "
                f"{unique} unique jobs across 2 clients (want exactly "
                f"{unique})"
            )
        duplicates = daemon_counters["coalesced"] + daemon_counters["l1_hits"]
        if duplicates < unique:
            failures.append(
                f"dedup: only {duplicates} duplicate submits absorbed "
                f"(coalesced {daemon_counters['coalesced']} + l1 "
                f"{daemon_counters['l1_hits']}), want >= {unique}"
            )
        print(
            f"[smoke] cold pass: {unique} unique jobs, "
            f"{daemon_counters['coalesced']} coalesced, "
            f"{daemon_counters['l1_hits']} L1 hits, "
            f"{stats['runs']['synth_calls']} synth calls in {wall:.1f}s"
        )

        # Second pass: same daemon, everything from L1, zero synthesis.
        with DaemonClient.connect(daemon.addr, timeout=120.0) as client:
            repass = client.submit_many(requests, tenant="tenant-a")
        synth = sum(
            (f.get("telemetry") or {}).get("synth_calls", 0) for f in repass
        )
        not_l1 = [f for f in repass if f.get("served_by") != "l1"]
        if synth or not_l1:
            failures.append(
                f"L1 repass: {synth} synth calls, "
                f"{len(not_l1)} responses not served by l1"
            )
        stats = http_get(daemon.addr, "/stats")
        artifact["warm"] = stats
        _check_layout(warm_cache, "L1 repass", failures)
        l1 = stats["tiers"]["l1"]
        print(
            f"[smoke] L1 repass: hit rate {l1['hit_rate']:.2f} "
            f"({l1['hits']}/{l1['lookups']})"
        )

    # ------------------------------------------------------------------
    # Phase 3: pack export -> fresh daemon import -> zero synthesis.
    # ------------------------------------------------------------------
    env_path = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.daemon", "pack", "export",
            "--cache-dir", str(warm_cache), "--output", str(pack_path),
        ],
        env={**os.environ, "PYTHONPATH": env_path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    print(f"[smoke] {proc.stdout.strip()}")
    if proc.returncode != 0:
        failures.append(f"pack export failed: {proc.stderr.strip()}")
    else:
        with DaemonProcess(
            cache_dir=str(fresh_cache),
            jobs=args.jobs,
            extra_args=extra + ["--warm-pack", str(pack_path)],
        ) as daemon:
            print(f"[smoke] pack-warmed fresh daemon at {daemon.addr}")
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                frames = client.submit_many(requests, tenant="fleet")
            bad = [f for f in frames if not f.get("ok")]
            if bad:
                failures.append(
                    f"pack-warmed daemon errors: "
                    f"{[f.get('error') for f in bad]}"
                )
            stats = http_get(daemon.addr, "/stats")
            artifact["pack_warmed"] = stats
            _check_layout(fresh_cache, "pack-warmed pass", failures)
            synth = stats["runs"]["synth_calls"]
            imported = stats["daemon"]["pack_imported_entries"]
            if synth:
                failures.append(
                    f"pack-warmed fresh daemon synthesized {synth} times "
                    "(want zero — the pack must carry the warm cache)"
                )
            if not imported:
                failures.append("pack import reported zero entries")
            print(
                f"[smoke] pack-warmed pass: {imported} entries imported, "
                f"{synth} synth calls, L2 hit rate "
                f"{stats['tiers']['l2']['hit_rate']}"
            )

        # --------------------------------------------------------------
        # Phase 4: restart on the warm cache and replay from L2.  L1 of
        # one entry, so every submit forks a worker (two or more unique
        # jobs alternate); the workers must inherit everything warm.
        # --------------------------------------------------------------
        replays = 5
        with DaemonProcess(
            cache_dir=str(fresh_cache),
            jobs=args.jobs,
            extra_args=extra + ["--l1-capacity", "1"],
        ) as daemon:
            print(f"[smoke] restarted warm daemon at {daemon.addr}")
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                frames = []
                for _ in range(replays):
                    for request in requests:
                        frames += client.submit_many([request], tenant="fleet")
            stats = http_get(daemon.addr, "/stats")
            artifact["restart_replay"] = stats
            _check_layout(fresh_cache, "restart replay", failures)
            bad = [f for f in frames if not f.get("ok")]
            parsed = stats["runs"]["perf"].get("specs_parsed", 0)
            grammars = stats["runs"]["perf"].get("grammar_builds", 0)
            rate_rejected = stats["admission"]["rejected"]["rate"]
            if bad:
                failures.append(
                    f"restart replay errors: {[f.get('error') for f in bad]}"
                )
            if stats["runs"]["synth_calls"]:
                failures.append(
                    f"restart replay synthesized "
                    f"{stats['runs']['synth_calls']} times (want zero)"
                )
            if len(requests) > 1 and stats["runs"]["jobs"] != len(frames):
                failures.append(
                    f"restart replay: {stats['runs']['jobs']} worker runs "
                    f"for {len(frames)} submits (L1 of 1 must miss)"
                )
            if parsed:
                failures.append(
                    f"warm fork: workers parsed {parsed} vendor specs "
                    "(want zero — prewarm must cover everything they read)"
                )
            if grammars:
                failures.append(
                    f"warm fork: workers built {grammars} grammars "
                    "(want zero — a cache hit never reads the grammar)"
                )
            if rate_rejected or stats["admission"]["limits"]["tenant_rate"]:
                failures.append(
                    f"admission: {rate_rejected} rate rejections at default "
                    "limits (rate limiting must be opt-in)"
                )
            print(
                f"[smoke] restart replay: {len(frames)} submits, "
                f"{stats['runs']['jobs']} worker runs, {parsed} specs "
                f"parsed, {grammars} grammars built, {rate_rejected} rate "
                "rejections"
            )
        warm_runtimes = _runtimes(frames)

        # --------------------------------------------------------------
        # Phase 5: rot one entry on disk, restart, replay once.  The
        # lookup check must evict it and the window re-synthesize to
        # the same program cost.
        # --------------------------------------------------------------
        rotted = _rot_one_entry(fresh_cache)
        with DaemonProcess(
            cache_dir=str(fresh_cache), jobs=args.jobs, extra_args=extra
        ) as daemon:
            print(f"[smoke] rotted {rotted}; restarted daemon at {daemon.addr}")
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                frames = client.submit_many(requests, tenant="fleet")
            stats = http_get(daemon.addr, "/stats")
            artifact["rot_replay"] = stats
            _check_layout(fresh_cache, "rot replay", failures)
            evicted = stats["runs"].get("cache_screen_failures", 0)
            synth = stats["runs"]["synth_calls"]
            bad = [f for f in frames if not f.get("ok")]
            if bad or len(frames) != len(requests):
                failures.append(
                    f"rot replay: {len(frames)}/{len(requests)} answers, "
                    f"errors {[f.get('error') for f in bad]}"
                )
            if evicted < 1:
                failures.append(
                    "rot replay: the rotted entry was served "
                    "(cache_screen_failures 0, want >= 1)"
                )
            if synth < 1:
                failures.append(
                    "rot replay: no re-synthesis after the eviction "
                    "(synth_calls 0, want >= 1)"
                )
            if _runtimes(frames) != warm_runtimes:
                failures.append(
                    f"rot replay runtimes {_runtimes(frames)} differ from "
                    f"the warm replay's {warm_runtimes}"
                )
            print(
                f"[smoke] rot replay: {evicted} entries evicted, "
                f"{synth} synth calls"
            )

    for root in (warm_cache, fresh_cache):
        if root.exists():
            _check_layout(root, "after drain", failures)

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(artifact, indent=2, sort_keys=True))
        print(f"[smoke] stats artifact -> {out_path}")

    if failures:
        print("[smoke] FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "[smoke] PASS: dedup, L1, pack warm-up, warm fork and rot "
        "eviction all proven"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
