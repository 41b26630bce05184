"""Tests for the deterministic fault-injection plane (``repro.faults``)
and the crash/hang hardening it exercises in the store, scheduler, and
job layers."""

import json
import time

import pytest

from repro import faults
from repro.autollvm import build_dictionary
from repro.faults import (
    SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RandomPlanOptions,
    random_plan,
)
from repro.halide import ir as hir
from repro.service import (
    CompileJob,
    PersistentCache,
    Scheduler,
    ServiceOptions,
    reap_tmp,
)
from repro.service.scheduler import _kill_limit
from repro.service.store import atomic_write
from repro.synthesis import CegisOptions, MemoCache
from repro.synthesis.program import SConcat, SInput, SSlice


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86", "hvx", "arm"))


@pytest.fixture(autouse=True)
def _no_leftover_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    yield
    faults.clear_plan()


def _window(names=("ld0", "ld1")):
    """The window _program() computes: the low half of the first load,
    then the high half of the second."""
    return hir.HConcat((
        hir.HSlice(hir.HLoad(names[0], 16, 16), 0, 8),
        hir.HSlice(hir.HLoad(names[1], 16, 16), 8, 8),
    ))


def _program():
    # Computes _window(): PersistentCache.lookup evaluates hits and
    # evicts programs that differ from the window they are served for.
    return SConcat(
        SSlice(SInput("ld1", 16, 16), high=True),
        SSlice(SInput("ld0", 16, 16), high=False),
    )


class TestPlan:
    def test_random_plan_deterministic(self):
        assert random_plan(7).to_json() == random_plan(7).to_json()
        assert random_plan(7).to_json() != random_plan(8).to_json()

    def test_random_plan_draws_legal_kinds(self):
        for seed in range(50):
            for spec in random_plan(seed).specs:
                assert spec.kind in SITES[spec.site]
                if spec.kind == "hang":
                    # Open-ended hangs are opt-in only: a random soak
                    # must always be bounded by the kill backstop.
                    assert spec.delay > 0

    def test_json_round_trip(self):
        plan = random_plan(3, RandomPlanOptions(max_faults=5))
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.seed == 3
        assert [s.to_obj() for s in restored.specs] == [
            s.to_obj() for s in plan.specs
        ]

    def test_bare_list_payload_accepted(self):
        plan = FaultPlan.from_json('[{"site": "store.load", "kind": "raise"}]')
        assert plan.specs[0].site == "store.load"

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ValueError):
            FaultPlan.from_json('[{"kind": "raise"}]')  # no site

    def test_fires_on_nth_call_for_count_calls(self):
        plan = FaultPlan([FaultSpec("s", "raise", at=2, count=2)])
        fired = [plan.fire("s") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_count_zero_fires_forever(self):
        plan = FaultPlan([FaultSpec("s", "raise", at=3, count=0)])
        assert [plan.fire("s") is not None for _ in range(5)] == [
            False, False, True, True, True,
        ]

    def test_match_filters_on_detail(self):
        plan = FaultPlan([FaultSpec("s", "raise", match="add")])
        assert plan.fire("s", "mul") is None
        assert plan.fire("s", "add:x86") is not None
        assert plan.fired == [("s", "raise", "add:x86")]

    def test_reset_replays_identically(self):
        plan = FaultPlan([FaultSpec("s", "raise", at=2)])
        first = [plan.fire("s") is not None for _ in range(3)]
        plan.reset()
        assert [plan.fire("s") is not None for _ in range(3)] == first


class TestActivation:
    def test_no_plan_is_a_noop(self):
        assert faults.check("store.load", "whatever") is None

    def test_installed_plan_fires_and_counts(self):
        from repro.perf import global_counters

        faults.install_plan(FaultPlan([FaultSpec("s", "raise")]))
        before = global_counters().faults_injected
        assert faults.check("s").kind == "raise"
        assert global_counters().faults_injected == before + 1

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_FAULTS,
            '[{"site": "s", "kind": "raise"}]',
        )
        with pytest.raises(InjectedFault):
            faults.trip("s")

    def test_env_plan_file(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan([FaultSpec("s", "eof")]).to_json())
        monkeypatch.setenv(faults.ENV_FAULTS, str(path))
        with pytest.raises(EOFError):
            faults.trip("s")

    def test_unusable_env_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv(faults.ENV_FAULTS, "{not json")
        assert faults.check("s") is None
        assert "ignoring unusable" in capsys.readouterr().err

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_FAULTS, '[{"site": "s", "kind": "eof"}]'
        )
        faults.install_plan(FaultPlan([FaultSpec("s", "raise")]))
        assert faults.check("s").kind == "raise"


class TestAtomicWriteFaults:
    def test_corrupt_truncate_zero_payloads(self, tmp_path):
        for kind, check in (
            ("corrupt", lambda t: "\x00" in t),
            ("truncate", lambda t: 0 < len(t) < len('{"a": 12345678}')),
            ("zero", lambda t: t == ""),
        ):
            faults.install_plan(
                FaultPlan([FaultSpec("store.atomic_write", kind)])
            )
            path = tmp_path / f"{kind}.json"
            atomic_write(path, '{"a": 12345678}')
            assert check(path.read_text()), kind
            faults.clear_plan()

    def test_leak_tmp_leaves_litter_and_reap_removes_it(self, tmp_path):
        faults.install_plan(
            FaultPlan([FaultSpec("store.atomic_write", "leak_tmp")])
        )
        atomic_write(tmp_path / "x.json", "{}")
        assert (tmp_path / "x.json").read_text() == "{}"
        assert len(list(tmp_path.glob(".tmp-*"))) == 1
        assert reap_tmp(tmp_path, min_age_seconds=0.0) == 1
        assert not list(tmp_path.glob(".tmp-*"))

    def test_crash_leaves_tmp_never_partial_entry(self, tmp_path):
        faults.install_plan(
            FaultPlan([FaultSpec("store.atomic_write.crash", "raise")])
        )
        with pytest.raises(InjectedFault):
            atomic_write(tmp_path / "x.json", "{}")
        # The destination never appeared; only .tmp litter (reapable).
        assert not (tmp_path / "x.json").exists()
        assert len(list(tmp_path.glob(".tmp-*"))) == 1

    def test_reap_age_guard_spares_live_writers(self, tmp_path):
        (tmp_path / ".tmp-live.json").write_text("")
        assert reap_tmp(tmp_path, min_age_seconds=60.0) == 0
        assert reap_tmp(tmp_path, min_age_seconds=0.0) == 1


class TestStoreHardening:
    def test_cache_write_errors_never_fail_the_compile(
        self, tmp_path, dictionary
    ):
        cache = PersistentCache(tmp_path, "x86", dictionary)
        faults.install_plan(
            FaultPlan([FaultSpec("store.atomic_write.crash", "raise", count=0)])
        )
        cache.store(_window(), "x86", _program(), 4.0)
        cache.store_failure(_window(names=("p", "q")), "x86")
        assert cache.write_errors == 2
        # In-memory state is intact; only the disk entry was lost.
        assert cache.lookup(_window(), "x86") is not None
        faults.clear_plan()
        reopened = PersistentCache(tmp_path, "x86", dictionary)
        assert reopened.lookup(_window(), "x86") is None
        assert len(reopened) == 0

    def test_corrupt_entry_skipped_then_overwritten(self, tmp_path, dictionary):
        faults.install_plan(
            FaultPlan([FaultSpec("store.atomic_write", "corrupt", match="e-")])
        )
        first = PersistentCache(tmp_path, "x86", dictionary)
        first.store(_window(), "x86", _program(), 4.0)
        faults.clear_plan()
        # The corrupt file is skipped when its key is first looked up
        # (charged once), then the window re-synthesizes and the
        # overwrite makes the entry readable.
        second = PersistentCache(tmp_path, "x86", dictionary)
        assert second.load_errors == 0
        assert second.lookup(_window(), "x86") is None
        assert second.lookup(_window(), "x86") is None
        assert len(second) == 0
        assert second.load_errors == 1
        second.store(_window(), "x86", _program(), 4.0)
        third = PersistentCache(tmp_path, "x86", dictionary)
        assert third.lookup(_window(), "x86") is not None
        assert len(third) == 1
        assert third.load_errors == 0

    def test_load_faults_charged_as_load_errors(self, tmp_path, dictionary):
        seeded = PersistentCache(tmp_path, "x86", dictionary)
        seeded.store(_window(), "x86", _program(), 4.0)
        low_half = hir.HSlice(hir.HLoad("ld0", 16, 16), 0, 8)
        seeded.store(
            low_half, "x86", SSlice(SInput("ld0", 16, 16), high=False), 4.0
        )
        faults.install_plan(
            FaultPlan([FaultSpec("store.load", "raise", count=0)])
        )
        reopened = PersistentCache(tmp_path, "x86", dictionary)
        assert reopened.load_errors == 0
        assert reopened.lookup(_window(), "x86") is None
        assert reopened.lookup(_window(), "x86") is None
        assert reopened.load_errors == 1
        assert len(reopened) == 0
        # Cleared: another key is read (and served) normally.
        faults.clear_plan()
        assert reopened.lookup(low_half, "x86") is not None
        assert reopened.load_errors == 1

    def test_stale_tmp_litter_reaped_on_open(self, tmp_path, dictionary):
        cache = PersistentCache(tmp_path, "x86", dictionary)
        stale = cache.dir / ".tmp-stale.json"
        stale.write_text("{")
        import os

        old = time.time() - 3600
        os.utime(stale, (old, old))
        reopened = PersistentCache(tmp_path, "x86", dictionary)
        assert reopened.tmp_reaped == 1
        assert not stale.exists()


class TestBudgetTaggedNegatives:
    def test_smaller_budget_failure_not_replayed_at_larger(self):
        cache = MemoCache()
        window = _window()
        cache.set_budget(3.0)
        cache.store_failure(window, "x86")
        assert cache.lookup_failure(window, "x86")
        cache.set_budget(6.0)
        assert not cache.lookup_failure(window, "x86")
        cache.set_budget(1.5)
        assert cache.lookup_failure(window, "x86")

    def test_merge_keeps_widest_budget(self):
        cache = MemoCache()
        window = _window()
        cache.set_budget(2.0)
        cache.store_failure(window, "x86")
        cache.set_budget(4.0)
        cache.store_failure(window, "x86")
        cache.set_budget(3.0)
        assert cache.lookup_failure(window, "x86")

    def test_untagged_failure_replayed_unconditionally(self):
        cache = MemoCache()
        window = _window()
        cache.store_failure(window, "x86")  # no budget set: unconditional
        cache.set_budget(1e9)
        assert cache.lookup_failure(window, "x86")

    def test_budget_persists_across_restart(self, tmp_path, dictionary):
        window = _window()
        writer = PersistentCache(tmp_path, "x86", dictionary)
        writer.set_budget(3.0)
        writer.store_failure(window, "x86")

        replay = PersistentCache(tmp_path, "x86", dictionary)
        replay.set_budget(3.0)
        assert replay.lookup_failure(window, "x86")

        wider = PersistentCache(tmp_path, "x86", dictionary)
        wider.set_budget(6.0)
        assert not wider.lookup_failure(window, "x86")

    def test_success_supersedes_persisted_failure(self, tmp_path, dictionary):
        window = _window()
        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.set_budget(3.0)
        cache.store_failure(window, "x86")
        assert list(cache.dir.glob("f-*.json"))
        cache.store(window, "x86", _program(), 4.0)
        assert not list(cache.dir.glob("f-*.json"))
        reopened = PersistentCache(tmp_path, "x86", dictionary)
        reopened.set_budget(1.0)
        assert not reopened.lookup_failure(window, "x86")
        assert reopened.lookup(window, "x86") is not None


class TestSchedulerHardening:
    CEGIS = CegisOptions(timeout_seconds=6.0, scale_factor=8)

    def test_kill_limit_always_finite(self):
        assert _kill_limit(CompileJob("add", "x86")) == 600.0
        assert _kill_limit(CompileJob("add", "x86"), 30.0) == 30.0
        assert (
            _kill_limit(CompileJob("add", "x86", timeout_seconds=10.0), 30.0)
            == 20.0
        )

    def test_eof_on_mute_worker_resolves_to_fallback(self, tmp_path):
        # The PR-2 deadlock: the worker closes its pipe and hangs.
        # poll(0) stays True forever after EOF, so before the fix the
        # monitor loop spun on a connection that could never deliver.
        faults.install_plan(
            FaultPlan(
                [FaultSpec("scheduler.worker.mute", "hang",
                           match="add", delay=30.0)]
            )
        )
        scheduler = Scheduler(
            ServiceOptions(jobs=2, cache_dir=str(tmp_path), cegis=self.CEGIS)
        )
        started = time.monotonic()
        results = scheduler.run(
            [CompileJob("add", "x86", "llvm"), CompileJob("mul", "x86", "llvm")]
        )
        assert time.monotonic() - started < 25.0
        assert scheduler.last_stats.worker_eofs == 1
        by_name = {r.result.benchmark: r for r in results}
        assert by_name["add"].ok
        assert "pipe closed" in by_name["add"].result.error
        assert by_name["mul"].ok
        assert not by_name["mul"].result.error

    def test_none_timeout_worker_killed_by_backstop(self, tmp_path):
        # Before the fix _kill_limit returned None for jobs without a
        # wall budget and a hung worker wedged the scheduler forever.
        faults.install_plan(
            FaultPlan(
                [FaultSpec("scheduler.worker.start", "hang",
                           match="add", delay=30.0)]
            )
        )
        scheduler = Scheduler(
            ServiceOptions(
                jobs=2, cache_dir=str(tmp_path),
                cegis=self.CEGIS, kill_seconds=2.0,
            )
        )
        started = time.monotonic()
        results = scheduler.run(
            [CompileJob("add", "x86", "llvm"), CompileJob("mul", "x86", "llvm")]
        )
        assert time.monotonic() - started < 25.0
        assert scheduler.last_stats.killed == 1
        by_name = {r.result.benchmark: r for r in results}
        assert by_name["add"].ok
        assert "killed after timeout" in by_name["add"].result.error

    def test_crash_before_send_resolves_to_fallback(self, tmp_path):
        faults.install_plan(
            FaultPlan(
                [FaultSpec("scheduler.worker.send", "exit", match="add")]
            )
        )
        scheduler = Scheduler(
            ServiceOptions(jobs=2, cache_dir=str(tmp_path), cegis=self.CEGIS)
        )
        results = scheduler.run(
            [CompileJob("add", "x86", "llvm"), CompileJob("mul", "x86", "llvm")]
        )
        by_name = {r.result.benchmark: r for r in results}
        assert by_name["add"].ok
        assert by_name["add"].telemetry.fallback == "llvm"
        assert by_name["mul"].ok


class TestJobLadderFaults:
    CEGIS = CegisOptions(timeout_seconds=6.0, scale_factor=8)

    def test_injected_attempt_error_goes_to_fallback(self):
        faults.install_plan(FaultPlan([FaultSpec("jobs.attempt", "raise")]))
        scheduler = Scheduler(ServiceOptions(jobs=1, cegis=self.CEGIS))
        outcome = scheduler.run(
            [CompileJob("add", "x86", "halide", fallback="llvm")]
        )[0]
        assert outcome.ok
        assert outcome.telemetry.fallback == "llvm"
        assert outcome.telemetry.attempts == 1  # deterministic: no retry
        assert outcome.result.error.startswith("fallback=llvm: injected fault")

    def test_injected_timeout_walks_the_retry_ladder(self):
        faults.install_plan(FaultPlan([FaultSpec("jobs.attempt", "timeout")]))
        scheduler = Scheduler(ServiceOptions(jobs=1, cegis=self.CEGIS))
        outcome = scheduler.run([CompileJob("add", "x86", "llvm")])[0]
        assert outcome.ok
        assert outcome.telemetry.attempts == 2
        assert not outcome.telemetry.fallback


@pytest.mark.service_smoke
class TestChaosSmoke:
    """One seeded chaos round end-to-end through the soak harness: the
    scheduler terminates, every job resolves, the fault-free rerun over
    the surviving cache matches the never-faulted reference, and no
    ``.tmp-*`` litter survives."""

    def test_single_round_soak(self, tmp_path):
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "scripts" / "chaos_service.py"
        )
        spec = importlib.util.spec_from_file_location("chaos_service", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        report = tmp_path / "summary.json"
        assert (
            module.main(
                [
                    "--seed", "0", "--jobs", "2", "--rounds", "1",
                    "--cache-dir", str(tmp_path / "work"),
                    "--report", str(report),
                ]
            )
            == 0
        )
        summary = json.loads(report.read_text())
        assert summary["ok"]
        assert summary["failures"] == []
