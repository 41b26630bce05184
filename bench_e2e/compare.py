#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, metric by metric and workload by workload.

    python3 bench_e2e/compare.py A.jsonl B.jsonl [--write-baseline BASELINE.json]

Each file is what ``run.py --record FILE`` appended: one JSON line per
(run, workload).  A is the reference side (the parent commit, or the
first set of a repeatability check), B the side under test.  For every
(end-to-end metric, workload) pair the verdict is

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — better by more than the bound;
* ``within``     — neither;
* ``unresolved`` — a side's own runs spread (interquartile range over
  median) wider than the bound, so the medians cannot be told apart —
  unless every run of B beats, or loses to, every run of A.

Bounds come from ``BENCHMARK.json`` for the metrics it bounds and from
``spec.HARNESS_P90_BOUND`` / ``spec.HARNESS_BOUNDS`` for the others.  Prints one
row per workload and exits 1 if any pair is ``worse``.  ``--write-baseline``
also records both sets' medians and spreads, and the first set's traced
per-layer tables, as the checked-in reference numbers.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent)]

from bench_e2e import spec  # noqa: E402

def records(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def load(path: str) -> dict[str, list[dict]]:
    """workload -> the end-to-end dicts of its untraced runs."""
    runs: dict[str, list[dict]] = {}
    for record in records(path):
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record["e2e"])
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (high - low) / abs(mid) if mid else 0.0


def relative_verdict(a: list[float], b: list[float], better: str,
                     bound: float) -> tuple[str, str]:
    sign = -1.0 if better == "lower" else 1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)
    detail = (f"A {med_a:.4g} (spread {spread(a):.1%}) -> B {med_b:.4g} "
              f"(spread {spread(b):.1%}), bound {bound:.1%}")
    if max(spread(a), spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better", detail
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "worse", detail
        return "unresolved", detail
    if gain < -bound:
        return "worse", detail
    return ("better" if gain > bound else "within"), detail


def absolute_verdict(a: list[float], b: list[float], better: str,
                     allowance: float) -> tuple[str, str]:
    sign = -1.0 if better == "lower" else 1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a)
    detail = f"A {med_a:.4g} -> B {med_b:.4g}, may worsen by {allowance:g}"
    if gain < -allowance - 1e-12:
        return "worse", detail
    return ("better" if gain > allowance + 1e-12 else "within"), detail


def compare(side_a: dict, side_b: dict) -> list[tuple[str, str, str, str]]:
    """(workload, metric, verdict, detail) for every pair."""
    rate_step = min(
        y - x for x, y in zip(spec.ZIPF_RATES_RPS, spec.ZIPF_RATES_RPS[1:]))
    listed = json.loads((_BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in listed["end_to_end"]}
    bounds["latency_ms_p90"] = spec.HARNESS_P90_BOUND
    rows = []
    for workload in spec.WORKLOADS:
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        for metric in spec.END_TO_END + spec.OUTCOME:
            a = [r[metric.name] for r in runs_a if r[metric.name] is not None]
            b = [r[metric.name] for r in runs_b if r[metric.name] is not None]
            if not a or not b:
                rows.append((workload, metric.name, "n/a", ""))
            elif metric.name in bounds:
                rows.append((workload, metric.name, *relative_verdict(
                    a, b, metric.better, bounds[metric.name])))
            else:
                allowance = (rate_step if metric.name == "max_rate_ok_rps"
                             else spec.HARNESS_BOUNDS[metric.name])
                rows.append((workload, metric.name, *absolute_verdict(
                    a, b, metric.better, allowance)))
    return rows


def baseline(paths: list[str]) -> dict:
    """What BASELINE.json holds: per set and (workload, metric) the
    median, spread and run count; the per-layer table and notes of the
    first set's traced runs; the environment of its first run."""
    out: dict = {"sets": [], "layers": {}, "notes": {}}
    for path in paths:
        summary: dict = {}
        for workload, runs in load(path).items():
            summary[workload] = {}
            for metric in spec.END_TO_END + spec.OUTCOME:
                values = [r[metric.name] for r in runs
                          if r[metric.name] is not None]
                if values:
                    summary[workload][metric.name] = {
                        "unit": metric.unit, "runs": len(values),
                        "median": statistics.median(values),
                        "spread": round(spread(values), 4),
                    }
        out["sets"].append(summary)
    first = records(paths[0])
    out["environment"] = first[0]["env"]
    out["run_seconds"] = first[0]["seconds"]
    for record in first:
        if record["trace"]:
            out["layers"][record["workload"]] = record["layers"]
            out["notes"][record["workload"]] = {
                key: value for key, value in record["notes"].items()
                if key != "samples"}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 4 and argv[2] == "--write-baseline":
        Path(argv[3]).write_text(
            json.dumps(baseline(argv[:2]), indent=1, sort_keys=True) + "\n")
        argv = argv[:2]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    for workload in spec.WORKLOADS:
        verdicts = [v for w, _m, v, _d in rows if w == workload]
        print(f"{workload:20s} " + "  ".join(
            f"{kind} {verdicts.count(kind)}"
            for kind in ("worse", "unresolved", "better", "within", "n/a")))
    for workload, metric, verdict, detail in rows:
        if verdict in ("worse", "unresolved", "better"):
            print(f"  {verdict:10s} {workload}/{metric}: {detail}")
    return 1 if any(v == "worse" for _w, _m, v, _d in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
