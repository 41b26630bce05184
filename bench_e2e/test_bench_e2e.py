"""Self-test of the benchmark harness (``pytest bench_e2e -q``).

Outside tier-1 ``testpaths`` on purpose: the ``--quick`` runs below start
real daemons and, in a fresh checkout, build the warm fixture first
(a few minutes on a 2-core host).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench_e2e import compare, spec  # noqa: E402
from bench_e2e.spans import Recorder, layer_seconds, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_spec_projection():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert listed == spec.benchmark_json()
    assert set(listed) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [w["name"] for w in listed["workloads"]] == [
        "cold_suite", "warm_l2", "zipf_open", "near_miss_windows"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in listed["workloads"])
    assert len(listed["end_to_end"]) <= 16 and len(listed["per_layer"]) <= 128
    names = [m["name"] for m in listed["end_to_end"] + listed["per_layer"]]
    assert len(names) == len(set(names))
    for metric in listed["end_to_end"] + listed["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in listed["end_to_end"])
    assert "setup_s" in {m["name"] for m in listed["end_to_end"]}
    readme = (BENCH / "README.md").read_text()
    assert [n for n in names if f"`{n}`" not in readme] == []
    # The issue's fourteen end-to-end names all appear, bounded or not.
    assert {"setup_s", "wall_s", "latency_ms_p50", "latency_ms_p90",
            "throughput_rps", "failed_share", "degraded_share",
            "runtime_us_geomean", "peak_rss_mb", "slo_share_r1",
            "slo_share_r2", "slo_share_r3", "max_rate_ok_rps",
            "program_mismatches"} <= set(names)


def test_self_time_is_duration_minus_children():
    recorder = Recorder()
    recorder.trace = "t"
    with recorder.span("request") as root:
        with recorder.span("a") as a:
            with recorder.span("b"):
                pass
        recorder.phase("phase", a, 0.0)  # zero-length phases are dropped
    spans = recorder.spans
    assert [s["name"] for s in spans] == ["request", "a", "b"]
    own = self_times(spans)
    for span in spans:
        kids = sum(k["end"] - k["start"] for k in spans
                   if k["parent"] == span["id"])
        assert own[span["id"]] == pytest.approx(
            span["end"] - span["start"] - kids)
    assert sum(layer_seconds(spans).values()) == pytest.approx(
        root["end"] - root["start"])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.relative_verdict(steady, steady, "lower", 0.1)[0] == "within"
    assert compare.relative_verdict(
        steady, [v * 1.3 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.relative_verdict(
        steady, [v * 1.3 for v in steady], "higher", 0.1)[0] == "better"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert compare.relative_verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.relative_verdict(
        noisy, [v / 10 for v in noisy], "lower", 0.1)[0] == "better"
    assert compare.absolute_verdict([0.0], [0.01], "lower", 0.0)[0] == "worse"
    assert compare.absolute_verdict([1.0], [0.96], "higher", 0.05)[0] == "within"


def test_zipf_schedule_is_a_function_of_the_seed():
    from bench_e2e import workloads

    first = workloads.zipf_schedule(7, 5.0)
    assert first == workloads.zipf_schedule(7, 5.0)
    other = workloads.zipf_schedule(8, 5.0)
    assert first != other and len(first) == len(other)
    assert {item["conn"] for item in first} == {0, 1}
    assert len({item["request"]["tenant"] for item in first}) == spec.ZIPF_TENANTS


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_run_schema(workload, tmp_path):
    """One traced ``--quick`` run per workload: the contract's last line,
    every listed metric present as a number with its unit, and the
    request wall accounted for by layer self times."""
    record = tmp_path / "runs.jsonl"
    # Three 5 s rate steps; the closed loops need no more than a pass.
    seconds = "15" if workload == "zipf_open" else "5"
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "3", "--quick", "--seconds", seconds, "--trace", str(trace),
             "--record", str(record)],
            capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        listed = spec.benchmark_json()["per_layer" if trace else "end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in listed}
        for metric in listed:
            value = line["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())

    traced = json.loads(record.read_text().splitlines()[-1])
    assert traced["layers"]["trace.unattributed_share"] <= spec.UNATTRIBUTED_CAP
    spans = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
    own = self_times(spans)
    for root in (s for s in spans if s["name"] == "request"):
        ids, grew = {root["id"]}, True
        while grew:
            more = {s["id"] for s in spans if s["parent"] in ids} - ids
            grew = bool(more)
            ids |= more
        assert sum(own[i] for i in ids) == pytest.approx(
            root["end"] - root["start"], rel=1e-6, abs=1e-6)
