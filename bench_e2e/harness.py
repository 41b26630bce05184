"""Shared plumbing: scratch space, the managed daemon, sample statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# repro.isa.registry.SUPPORTED_ISAS, spelled out: this module must import
# without the program present (require_program speaks first).  The first
# three are the core dictionary's.
ALL_ISAS = ("x86", "hvx", "arm", "rvv")


class Invalid(Exception):
    """The run cannot produce a number: a workload's mechanism did not
    fire, or the host disturbed the measurement."""


def require_program() -> None:
    """Exit non-zero, printing no result, when the program under test is
    absent (a directory holding only the benchmark's own files)."""
    if not (SRC_DIR / "repro" / "daemon" / "server.py").is_file():
        print(
            f"bench_e2e: {SRC_DIR}/repro not found; nothing to benchmark",
            file=sys.stderr,
        )
        raise SystemExit(3)


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Scratch space (always inside the checkout)
# ----------------------------------------------------------------------


def use_local_tmp() -> Path:
    """Point ``tempfile`` (ours and every child's) below ``out/`` so no
    run writes outside its checkout."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    return tmp


@contextmanager
def scratch(prefix: str):
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def source_digest(extra: str) -> str:
    """Hash of the program's sources plus ``extra``: a fixture built by
    other code must never be replayed."""
    digest = hashlib.sha256(extra.encode())
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# The program's processes
# ----------------------------------------------------------------------


def child_env(irgen_dir: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("REPRO_IRGEN_CACHE", None)
    if irgen_dir is not None:
        env["REPRO_IRGEN_CACHE"] = str(irgen_dir)
    return env


def build_irgen(irgen_dir: Path) -> float:
    """Cold-build both artifacts the four ISAs need (the 3-ISA core
    dictionary and the 4-ISA one rvv jobs extend it to), each in its own
    ``python -m repro.irgen build``; returns the wall."""
    started = time.monotonic()
    for isas in (ALL_ISAS[:3], ALL_ISAS):
        subprocess.run(
            [sys.executable, "-m", "repro.irgen", "build",
             "--cache-dir", str(irgen_dir), "--isas", ",".join(isas)],
            env=child_env(None), check=True, stdout=sys.stderr,
        )
    return time.monotonic() - started


@contextmanager
def daemon(cache_dir: Path, irgen_dir: Path, jobs: int, extra: list[str]):
    """A live ``repro.daemon`` on ``cache_dir``; always torn down."""
    from repro.daemon.proc import DaemonProcess

    proc = DaemonProcess(
        cache_dir=str(cache_dir), jobs=jobs, extra_args=extra,
        env=child_env(irgen_dir),
    )
    try:
        proc.start()
        yield proc
    finally:
        proc.stop()


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Sample statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Quantile by linear interpolation between the closest ranks (so
    the 0.5 one is the usual median); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tier_of(frame: dict) -> str:
    """Which tier answered, derived at the client."""
    served_by = frame.get("served_by", "")
    if served_by in ("l1", "coalesced", "rule"):
        return served_by
    telemetry = frame.get("telemetry") or {}
    if not telemetry.get("synth_calls") and not telemetry.get("rule_hits"):
        return "l2"
    return "synthesis"


def classify(samples: list[dict]) -> None:
    """Annotate samples in place: ``job`` (benchmark, isa), ``status``
    (ok / degraded / failed) and, when answered, ``tier`` and
    ``latency_ms``."""
    for sample in samples:
        sample["job"] = (sample["request"]["benchmark"], sample["request"]["isa"])
        frame = sample["frame"]
        if frame is None or not frame.get("ok"):
            sample["status"] = "failed"
            continue
        result = frame.get("result") or {}
        telemetry = frame.get("telemetry") or {}
        degraded = bool(telemetry.get("fallback")) or bool(result.get("error"))
        sample["status"] = "degraded" if degraded else "ok"
        sample["tier"] = tier_of(frame)
        sample["latency_ms"] = (sample["done"] - sample["due"]) * 1000.0


def stats_delta(before: dict, after: dict) -> dict:
    """The /stats counters the per-layer table reads, as deltas."""
    def rejected(stats: dict) -> int:
        return sum((stats["admission"].get("rejected") or {}).values())

    def pick(stats: dict) -> dict:
        return {
            "l1_hits": stats["tiers"]["l1"]["hits"],
            "coalesced": stats["daemon"]["coalesced"],
            "window_deferrals": stats["daemon"]["window_deferrals"],
            "killed": stats["runs"]["killed"],
            "worker_eofs": stats["runs"]["worker_eofs"],
            "synth_calls": stats["runs"]["synth_calls"],
            "rejected": rejected(stats),
        }

    first, last = pick(before), pick(after)
    return {key: last[key] - first[key] for key in last}


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))
