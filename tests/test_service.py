"""Tests for the compilation service: serialization, persistent cache,
scheduler, the warm-cache acceptance scenario (`service-smoke`), and the
concrete check every stored program passes before it is served
(repro.synthesis.cache.check_stored_program)."""

import json
import random

import pytest

from repro.autollvm import build_dictionary
from repro.experiments.runner import ExperimentRunner
from repro.halide import ir as hir
from repro.service import (
    CompileJob,
    PersistentCache,
    Scheduler,
    ServiceOptions,
    gc_store,
    store_stats,
)
from repro.service.store import _key_hash
from repro.synthesis import CegisOptions, MemoCache
from repro.synthesis.cache import (
    CacheEntry,
    canonical_key,
    check_stored_program,
)
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SInput,
    SOp,
    SSlice,
    SSwizzle,
    evaluate_program,
)
from repro.synthesis.serialize import (
    SerializeError,
    dictionary_fingerprint,
    entry_from_json,
    entry_to_json,
    snode_from_obj,
    snode_to_obj,
)
from repro.workloads.registry import benchmark_named


@pytest.fixture(scope="module")
def dictionary():
    """The one dictionary the service compiles every ISA against."""
    return build_dictionary()


def _add_window(lanes=16, ew=16, names=("ld0", "ld1")):
    return hir.HBin(
        "add", hir.HLoad(names[0], lanes, ew), hir.HLoad(names[1], lanes, ew)
    )


def _structural_program():
    # Exercises every structural node kind.  It computes
    # _structural_window(), which is what a cache must store it under:
    # PersistentCache.lookup evaluates hits and evicts programs that
    # differ from the window they are served for.
    return SConcat(
        SSwizzle(
            "interleave_full",
            (
                SSlice(SSlice(SInput("ld0", 16, 16), high=True), high=True),
                SConstant(3, 4, 16),
            ),
            16,
            128,
        ),
        SSlice(SInput("ld1", 16, 16), high=True),
    )


def _structural_window(names=("ld0", "ld1")):
    """The window _structural_program() computes, lane 0 first: the high
    half of the second load, then lanes 12..15 of the first interleaved
    with the constant 3."""
    first, second = hir.HLoad(names[0], 16, 16), hir.HLoad(names[1], 16, 16)
    quarter = hir.HConcat((hir.HSlice(first, 12, 4), hir.HConst(3, 4, 16)))
    return hir.HConcat((
        hir.HSlice(second, 8, 8),
        hir.HShuffle(quarter, (0, 4, 1, 5, 2, 6, 3, 7)),
    ))


def _op_program(dictionary):
    """A real instruction application (for binding re-resolution)."""
    spec_name = "_mm512_add_epi16"
    op = dictionary.by_target_instruction[spec_name]
    binding = next(b for b in op.bindings if b.spec.name == spec_name)
    from repro.synthesis.program import SOp

    return SOp(
        op,
        binding,
        (SInput("ld0", 32, 16), SInput("ld1", 32, 16)),
        (),
        None,
        512,
    )


class TestSerialize:
    def test_structural_round_trip(self, dictionary):
        node = _structural_program()
        restored = snode_from_obj(snode_to_obj(node), dictionary)
        assert restored == node

    def test_op_round_trip_evaluates_identically(self, dictionary):
        from repro.bitvector.lanes import vector_from_ints

        node = _op_program(dictionary)
        restored = snode_from_obj(snode_to_obj(node), dictionary)
        env = {
            "ld0": vector_from_ints(list(range(32)), 16).bits,
            "ld1": vector_from_ints([7] * 32, 16).bits,
        }
        assert (
            evaluate_program(restored, env).value
            == evaluate_program(node, env).value
        )
        # The binding was re-resolved, not pickled along.
        assert restored.binding.spec.name == "_mm512_add_epi16"

    def test_entry_json_round_trip(self, dictionary):
        from repro.synthesis.cache import CacheEntry

        entry = CacheEntry(_structural_program(), 2.5, ["ld0", "ld1"])
        key, restored = entry_from_json(
            entry_to_json("x86:(k)", entry), dictionary
        )
        assert key == "x86:(k)"
        assert restored.program == entry.program
        assert restored.cost == 2.5
        assert restored.input_order == ["ld0", "ld1"]

    def test_unknown_instruction_rejected(self, dictionary):
        obj = {
            "kind": "op",
            "spec": "no_such_instruction",
            "args": [],
            "imm_values": [],
            "scaled_values": None,
            "out_bits": 128,
        }
        with pytest.raises(SerializeError):
            snode_from_obj(obj, dictionary)

    def test_fingerprint_stable_and_sensitive(self, dictionary):
        a = dictionary_fingerprint(dictionary)
        assert a == dictionary_fingerprint(dictionary)
        assert a != dictionary_fingerprint(dictionary, extra=("v2",))

    def test_fingerprint_memoised_per_dictionary_object(self, dictionary):
        from repro.autollvm.intrinsics import AutoLLVMDictionary, AutoLLVMOp

        def rebuilt(ops):
            return AutoLLVMDictionary(
                dictionary.isas, ops, dictionary.by_target_instruction
            )

        memoised = dictionary_fingerprint(dictionary)
        assert dictionary._fingerprint == memoised
        # Memoised and fresh digests agree.
        assert dictionary_fingerprint(rebuilt(list(dictionary.ops))) == memoised
        # A dictionary rebuilt with a changed member is a new object with
        # a new digest.
        first = dictionary.ops[0]
        changed = AutoLLVMOp(
            first.name, first.class_id, first.eq_class, first.bindings[:-1]
        )
        other = rebuilt([changed] + list(dictionary.ops[1:]))
        assert dictionary_fingerprint(other) != memoised
        # extra= digests are neither served from the memo nor stored in it.
        salted = dictionary_fingerprint(dictionary, extra=("v2",))
        assert salted != memoised
        assert dictionary_fingerprint(dictionary, extra=("v3",)) != salted
        assert dictionary._fingerprint == memoised
        assert dictionary_fingerprint(dictionary) == memoised


class TestMemoCacheAccounting:
    def test_failure_hits_counted(self):
        cache = MemoCache()
        window = _add_window()
        assert not cache.lookup_failure(window, "x86")
        assert cache.failure_hits == 0
        cache.store_failure(window, "x86")
        assert cache.lookup_failure(window, "x86")
        assert cache.lookup_failure(window, "x86")
        assert cache.failure_hits == 2
        cache.clear()
        assert cache.failure_hits == 0

    def test_counters_snapshot(self):
        cache = MemoCache()
        cache.lookup(_add_window(), "x86")
        snap = cache.counters()
        assert snap == {
            "hits": 0, "misses": 1, "failure_hits": 0,
            "entries": 0, "failures": 0,
        }


class TestPersistentCache:
    def test_persists_across_restart_with_rename(self, tmp_path, dictionary):
        window = _structural_window()
        first = PersistentCache(tmp_path, "x86", dictionary)
        first.store(window, "x86", _structural_program(), 4.0)

        # A fresh instance over the same directory models a restart.  It
        # reads an entry when it is first asked for its key, not on open.
        second = PersistentCache(tmp_path, "x86", dictionary)
        assert len(second) == 0
        renamed = _structural_window(names=("p", "q"))
        hit = second.lookup(renamed, "x86")
        assert hit is not None
        assert len(second) == 1
        names = {n.name for n in hit.program.walk() if isinstance(n, SInput)}
        assert names == {"p", "q"}
        assert second.hits == 1

    def test_warm_hit_serializes_its_window_twice(
        self, tmp_path, dictionary, monkeypatch
    ):
        """One key for ``lookup_failure``, one for ``lookup``: the
        persistent layer hands its key to the in-memory one instead of
        letting it serialize the window again."""
        from repro.service import store as store_module
        from repro.synthesis import build_grammar, synthesize
        from repro.synthesis import cache as cache_module

        window = _structural_window()
        PersistentCache(tmp_path, "x86", dictionary).store(
            window, "x86", _structural_program(), 4.0
        )
        keys = []

        def counting(expr, isa):
            keys.append(expr)
            return canonical_key(expr, isa)

        monkeypatch.setattr(store_module, "canonical_key", counting)
        monkeypatch.setattr(cache_module, "canonical_key", counting)
        warm = PersistentCache(tmp_path, "x86", dictionary)
        result = synthesize(
            window, build_grammar(window, "x86", dictionary), cache=warm
        )
        assert result.stats.cache_hit
        assert len(keys) == 2

    def test_negative_entries_persist(self, tmp_path, dictionary):
        window = _add_window()
        first = PersistentCache(tmp_path, "x86", dictionary)
        first.store_failure(window, "x86")
        second = PersistentCache(tmp_path, "x86", dictionary)
        assert second.lookup_failure(window, "x86")
        assert second.failure_hits == 1

    def test_fingerprint_mismatch_invalidates(self, tmp_path, dictionary):
        window = _add_window()
        old = PersistentCache(tmp_path, "x86", dictionary, fingerprint="a" * 64)
        old.store(window, "x86", _structural_program(), 4.0)
        # A different fingerprint namespaces to a different directory:
        # nothing from the old dictionary is replayed.
        new = PersistentCache(tmp_path, "x86", dictionary, fingerprint="b" * 64)
        assert len(new) == 0
        assert new.lookup(window, "x86") is None
        # gc keeps only the live namespace.
        outcome = gc_store(tmp_path, "b" * 64)
        assert outcome["removed_namespaces"] == 1
        stats = store_stats(tmp_path)
        assert [ns["fingerprint"][:1] for ns in stats["namespaces"]] == ["b"]

    @staticmethod
    def _spoil(cache, window, text):
        """Overwrite ``window``'s positive and negative entry files."""
        digest = _key_hash(canonical_key(window, "x86"))
        (cache.dir / f"e-{digest}.json").write_text(text)
        (cache.dir / f"f-{digest}.json").write_text(text)

    def _corrupt_entry_never_served(self, tmp_path, dictionary, text):
        good = _structural_window()
        bad = _add_window()
        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.store(good, "x86", _structural_program(), 4.0)
        self._spoil(cache, bad, text)
        reopened = PersistentCache(tmp_path, "x86", dictionary)
        # Opening parses nothing.
        assert len(reopened) == 0
        assert reopened.load_errors == 0
        # The corrupt key misses, charged once however often it is asked.
        for _ in range(3):
            assert reopened.lookup_failure(bad, "x86") is False
            assert reopened.lookup(bad, "x86") is None
        assert reopened.load_errors == 2
        # Another key is still a hit.
        assert reopened.lookup(good, "x86") is not None
        assert reopened.load_errors == 2

    def test_corrupt_entries_skipped(self, tmp_path, dictionary):
        self._corrupt_entry_never_served(tmp_path, dictionary, "{not json")

    def test_zero_length_entries_skipped(self, tmp_path, dictionary):
        self._corrupt_entry_never_served(tmp_path, dictionary, "")

    def test_foreign_writes_after_open_are_hits(self, tmp_path, dictionary):
        window = _structural_window()
        reader = PersistentCache(tmp_path, "x86", dictionary)
        writer = PersistentCache(tmp_path, "x86", dictionary)
        assert reader.lookup(window, "x86") is None
        writer.store(window, "x86", _structural_program(), 4.0)
        assert reader.lookup(window, "x86") is not None
        assert reader.load_errors == 0

    def test_corrupt_entry_counted_once_per_key(self, tmp_path, dictionary):
        window = _structural_window()
        reader = PersistentCache(tmp_path, "x86", dictionary)
        self._spoil(reader, window, "{not json")
        assert reader.lookup(window, "x86") is None
        assert reader.load_errors == 2
        assert reader.lookup(window, "x86") is None
        assert reader.load_errors == 2
        # Re-synthesis overwrites the corrupt file: this object serves
        # it from memory, a restarted one reads it back cleanly.
        reader.store(window, "x86", _structural_program(), 4.0)
        assert reader.lookup(window, "x86") is not None
        restarted = PersistentCache(tmp_path, "x86", dictionary)
        assert restarted.lookup(window, "x86") is not None
        assert restarted.load_errors == 0

    def test_entries_scans_every_valid_entry_once(self, tmp_path, dictionary):
        windows = [_structural_window(), _add_window()]
        writer = PersistentCache(tmp_path, "x86", dictionary)
        writer.store(windows[0], "x86", _structural_program(), 4.0)
        writer.store_failure(windows[1], "x86")
        (writer.dir / "e-0000.json").write_text("{not json")
        (writer.dir / "f-0000.json").write_text("[]")
        reader = PersistentCache(tmp_path, "x86", dictionary)
        scanned = reader.entries()
        assert list(scanned) == [canonical_key(windows[0], "x86")]
        assert reader.load_errors == 2
        assert reader.entries() == scanned
        assert reader.load_errors == 2
        # The scan also filled the negative cache.
        assert reader.lookup_failure(windows[1], "x86")
        assert reader.lookup(windows[0], "x86") is not None
        assert reader.load_errors == 2

    def test_store_stats_excludes_tmp_litter(self, tmp_path, dictionary):
        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.store(_add_window(), "x86", _structural_program(), 4.0)
        clean = store_stats(tmp_path)
        (cache.dir / ".tmp-orphan.json").write_text("x" * 4096)
        littered = store_stats(tmp_path)
        assert littered["total_tmp_litter"] == 1
        assert littered["namespaces"][0]["tmp_litter"] == 1
        assert littered["total_bytes"] == clean["total_bytes"]
        assert littered["total_entries"] == clean["total_entries"]

    def test_store_stats_inventory(self, tmp_path, dictionary):
        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.store(_add_window(), "x86", _structural_program(), 4.0)
        cache.store_failure(_add_window(names=("a", "b"), ew=8), "x86")
        stats = store_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert stats["total_failures"] == 1
        assert stats["total_bytes"] > 0
        assert stats["namespaces"][0]["isa"] == "x86"


@pytest.mark.service_smoke
class TestServiceSmoke:
    """The ISSUE's acceptance scenario: warm a 2-benchmark cache with
    ``--jobs 2``; the second run must be served entirely from disk (zero
    CEGIS synthesis calls) and parallel results must equal serial ones."""

    BENCHMARKS = ("add", "mul")
    CEGIS = CegisOptions(timeout_seconds=6.0, scale_factor=8)

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("service-cache")

    def _jobs(self):
        return [CompileJob(name, "x86") for name in self.BENCHMARKS]

    @pytest.fixture(scope="class")
    def warm_run(self, cache_dir):
        scheduler = Scheduler(
            ServiceOptions(jobs=2, cache_dir=str(cache_dir), cegis=self.CEGIS)
        )
        results = scheduler.run(
            [CompileJob(name, "x86") for name in self.BENCHMARKS]
        )
        return scheduler.last_stats, results

    def test_cold_run_synthesizes_and_populates(self, warm_run, cache_dir):
        stats, results = warm_run
        assert all(r.ok for r in results)
        assert stats.synth_calls > 0
        assert store_stats(cache_dir)["total_entries"] > 0

    def test_second_run_zero_synthesis(self, warm_run, cache_dir):
        _, cold_results = warm_run
        scheduler = Scheduler(
            ServiceOptions(jobs=2, cache_dir=str(cache_dir), cegis=self.CEGIS)
        )
        results = scheduler.run(self._jobs())
        stats = scheduler.last_stats
        assert stats.synth_calls == 0
        assert stats.cache_hits >= 1
        assert stats.hit_rate == 1.0
        # Parallel warm results are identical to the parallel cold run.
        for cold, warm in zip(cold_results, results):
            assert warm.result.runtime_us == cold.result.runtime_us

    def test_parallel_matches_serial(self, warm_run, cache_dir):
        _, cold_results = warm_run
        runner = ExperimentRunner(self.CEGIS, cache_dir=str(cache_dir))
        for outcome in cold_results:
            serial = runner.run_one(
                benchmark_named(outcome.result.benchmark), "x86", "hydride"
            )
            assert serial.runtime_us == outcome.result.runtime_us

    def test_identical_jobs_deduplicated(self, warm_run, cache_dir):
        scheduler = Scheduler(
            ServiceOptions(jobs=2, cache_dir=str(cache_dir), cegis=self.CEGIS)
        )
        results = scheduler.run([CompileJob("add", "x86")] * 2)
        assert scheduler.last_stats.deferred >= 1
        assert results[0].result.runtime_us == results[1].result.runtime_us

    def test_stats_report_hit_rate(self, warm_run, cache_dir):
        from repro.service import read_run_telemetry

        # warm_run (and the tests above) recorded telemetry; `stats` must
        # report a hit rate.
        last = read_run_telemetry(cache_dir)
        assert last is not None
        assert "hit_rate" in last

    def test_perf_counters_surface_in_telemetry(self, warm_run):
        stats, results = warm_run
        # The cold run synthesized, so at least one job carries a
        # synthesis hot-path snapshot delta (counters are process-global;
        # forked workers attribute them cleanly to their one job).
        synth = [r for r in results if r.telemetry.synth_calls > 0]
        assert synth
        assert any(
            r.telemetry.perf.get("candidates_evaluated", 0) > 0 for r in synth
        )
        metrics = synth[0].telemetry.perf_metrics()
        assert "candidates_per_sec" in metrics
        # The scheduler sums per-job deltas into the run aggregate and
        # exports derived rates for `repro.service stats`.
        assert stats.perf.get("candidates_evaluated", 0) > 0
        exported = stats.to_dict()
        assert "blast_cache_hit_rate" in exported["perf_metrics"]


class TestWarmFork:
    """The warm-fork invariant: a worker forked after ``prewarm`` parses
    no vendor spec, whatever ISA its job targets."""

    # Synthesis need not succeed: a window that fails still opens the
    # store and builds its grammar, which is where workers used to parse.
    CEGIS = CegisOptions(timeout_seconds=0.3, scale_factor=8)
    ISAS = ("x86", "hvx", "arm", "rvv")

    def test_prewarm_freezes_what_it_built(self, tmp_path):
        """``prewarm`` ends with ``gc.freeze()``, so a forked worker's
        collections never walk the dictionary."""
        import gc

        from repro.service import prewarm

        try:
            prewarm(str(tmp_path))
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_warm_workers_parse_no_specs(self, tmp_path):
        from repro.isa.registry import load_isa
        from repro.perf import global_counters
        from repro.service import prewarm

        for isa in self.ISAS:  # cache presence makes prewarm cover rvv
            (tmp_path / isa).mkdir()
        prewarm(str(tmp_path))
        # Parsed semantics other tests left in this process would mask a
        # worker that still reaches for load_isa.
        load_isa.cache_clear()
        parsed_before = global_counters().specs_parsed
        scheduler = Scheduler(
            ServiceOptions(jobs=2, cache_dir=str(tmp_path), cegis=self.CEGIS)
        )
        results = scheduler.run([CompileJob("add", isa) for isa in self.ISAS])
        assert [r.job.isa for r in results] == list(self.ISAS)
        for outcome in results:
            assert outcome.ok, outcome.result.error
            assert outcome.telemetry.worker_pid
            assert outcome.telemetry.perf.get("specs_parsed", 0) == 0
        assert scheduler.last_stats.perf.get("specs_parsed", 0) == 0
        assert global_counters().specs_parsed == parsed_before

    @staticmethod
    def _forked(job, cache_dir, cegis):
        """Run one job in a ``WorkerPool``-forked worker."""
        from repro.service.scheduler import WorkerPool

        pool = WorkerPool(ServiceOptions(
            jobs=1, cache_dir=cache_dir, cegis=cegis, kill_seconds=120.0
        ))
        pool.submit(0, job)
        assert pool.launch_ready() == [0]
        events = []
        while not events:
            pool.wait()
            events = pool.poll()
        pool.shutdown()
        (event,) = events
        assert event.kind == "result"
        return event.outcome

    def test_warm_worker_does_only_its_lookups(self, tmp_path):
        """A worker answering a fully cached job reads its windows' entries
        by key and nothing else: no grammar scan, no spec parse, no
        write — and it serves exactly what the cold compile stored."""
        from repro.service import prewarm

        job = CompileJob("average_pool", "x86")
        cegis = CegisOptions(timeout_seconds=30, scale_factor=8)
        prewarm(str(tmp_path))

        def stored():
            return {
                path.name: path.read_bytes()
                for path in tmp_path.glob("x86/*/[ef]-*.json")
            }

        cold = self._forked(job, str(tmp_path), cegis)
        written = stored()
        assert cold.ok and cold.telemetry.synth_calls >= 1
        assert cold.telemetry.entries_added == len(written) >= 1
        assert cold.telemetry.perf.get("grammar_builds", 0) >= 1

        warm = self._forked(job, str(tmp_path), cegis)
        telemetry = warm.telemetry
        assert warm.ok
        assert telemetry.perf.get("grammar_builds", 0) == 0
        assert telemetry.perf.get("specs_parsed", 0) == 0
        assert telemetry.synth_calls == 0
        assert telemetry.entries_added == 0
        assert telemetry.cache_hits == warm.result.expression_count >= 1
        assert telemetry.cache_screened == telemetry.cache_hits
        assert warm.result.runtime_us == cold.result.runtime_us
        assert stored() == written

    def test_parse_spec_is_counted(self):
        from repro.isa.registry import load_catalog, parse_spec
        from repro.perf import global_counters

        before = global_counters().specs_parsed
        parse_spec("hvx", load_catalog("hvx").specs[0])
        assert global_counters().specs_parsed == before + 1


class TestOneQueue:
    """``WorkerPool`` is the one job queue of the batch scheduler and the
    daemon: a job sharing a window key with a running job launches only
    after that job's event."""

    def test_overlapping_job_waits_for_the_owner(self, tmp_path, monkeypatch):
        from repro.service import prewarm, scheduler

        # llvm jobs are fast and have no windows of their own: give every
        # job the same one.
        monkeypatch.setattr(
            scheduler, "window_keys", lambda job: frozenset({"shared"})
        )
        prewarm(str(tmp_path))
        pool = scheduler.WorkerPool(ServiceOptions(
            jobs=2, cache_dir=str(tmp_path), kill_seconds=120.0
        ))
        for token, name in enumerate(("add", "mul")):
            pool.submit(token, CompileJob(name, "x86", "llvm"))
        try:
            assert pool.launch_ready() == [0]
            assert pool.launch_ready() == []
            assert (pool.queued, pool.stats.deferred) == (1, 1)
            events = []
            while not events:
                pool.wait()
                events = pool.poll()
            assert [event.token for event in events] == [0]
            assert events[0].outcome.ok
            assert pool.launch_ready() == [1]
            assert pool.stats.deferred == 1
            pool.submit(2, CompileJob("average_pool", "x86", "llvm"))
            assert pool.launch_ready() == []
        finally:
            abandoned = pool.shutdown()
        # The queued job is answered by shutdown, never launched.
        assert abandoned == [2, 1]
        assert (pool.queued, pool.active) == (0, 0)
        assert pool.stats.deferred == 2
        assert (pool.stats.jobs, pool.stats.ok) == (1, 1)


class TestSchedulerSerialPath:
    def test_serial_run_matches_runner(self, dictionary):
        scheduler = Scheduler(
            ServiceOptions(jobs=1, cegis=CegisOptions(timeout_seconds=6.0))
        )
        outcome = scheduler.run([CompileJob("add", "x86", "llvm")])[0]
        assert outcome.ok
        runner = ExperimentRunner(CegisOptions(timeout_seconds=6.0))
        serial = runner.run_one(benchmark_named("add"), "x86", "llvm")
        assert outcome.result.runtime_us == serial.runtime_us

    def test_fallback_on_rake_failure(self):
        # Rake raises CompileError on kernels it cannot handle; the job
        # API degrades to the llvm baseline and records the substitution.
        scheduler = Scheduler(
            ServiceOptions(jobs=1, cegis=CegisOptions(timeout_seconds=6.0))
        )
        outcome = scheduler.run(
            [CompileJob("conv_nn", "hvx", "rake", fallback="llvm")]
        )[0]
        assert outcome.ok
        assert outcome.telemetry.fallback == "llvm"
        assert outcome.result.error.startswith("fallback=llvm:")
        assert outcome.result.compiler == "rake"


class TestCliStats:
    def test_stats_json(self, tmp_path, dictionary, capsys):
        from repro.service.cli import main

        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.store(_add_window(), "x86", _structural_program(), 4.0)
        assert main(["stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] == 1


class TestCliGc:
    def test_gc_keeps_every_isa_and_removes_foreign(
        self, tmp_path, dictionary, capsys
    ):
        """One dictionary means one live fingerprint for every ISA's
        namespace: gc must keep all four (it used to keep only the core
        ISAs' and delete rvv's) and still reap a foreign fingerprint."""
        from repro.isa.registry import supported_isas
        from repro.service.cli import main

        for isa in supported_isas():
            cache = PersistentCache(tmp_path, isa, dictionary)
            cache.store(_add_window(), isa, _structural_program(), 4.0)
        foreign = PersistentCache(
            tmp_path, "x86", dictionary, fingerprint="a" * 64
        )
        foreign.store(_add_window(), "x86", _structural_program(), 4.0)
        before = store_stats(tmp_path)
        assert len(before["namespaces"]) == len(supported_isas()) + 1

        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 stale namespaces" in capsys.readouterr().out
        after = store_stats(tmp_path)
        live = dictionary_fingerprint(dictionary)
        assert sorted(ns["isa"] for ns in after["namespaces"]) == sorted(
            supported_isas()
        )
        assert {ns["fingerprint"] for ns in after["namespaces"]} == {live}
        assert after["total_entries"] == len(supported_isas())

    def test_gc_removes_the_dead_reuse_directory(
        self, tmp_path, dictionary, capsys
    ):
        """``<root>/reuse/`` held the removed cross-window store's suites
        and any ``.tmp-*`` a crashed flush left; nothing reads it, and gc
        deletes it whole without touching a live namespace."""
        from repro.isa.registry import supported_isas
        from repro.service.cli import main

        for isa in supported_isas():
            cache = PersistentCache(tmp_path, isa, dictionary)
            cache.store(_add_window(), isa, _structural_program(), 4.0)
        before = store_stats(tmp_path)["namespaces"]
        dead = tmp_path / "reuse"
        dead.mkdir()
        (dead / f"r-{'0' * 32}.json").write_text("{}")
        (dead / ".tmp-crashed.json").write_text("{")

        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0 stale namespaces (2 files" in capsys.readouterr().out
        assert not dead.exists()
        assert store_stats(tmp_path)["namespaces"] == before
        assert len(before) == len(supported_isas())


# ----------------------------------------------------------------------
# The stored-program check (structure, then concrete trials)
# ----------------------------------------------------------------------


def _check(spec, program, trials=4):
    return check_stored_program(program, spec, random.Random(0), trials)


def _add_op(dictionary, args):
    """``_mm_add_epi16`` applied to ``args`` (128-bit result)."""
    name = "_mm_add_epi16"
    op = dictionary.by_target_instruction[name]
    binding = next(b for b in op.bindings if b.spec.name == name)
    return SOp(op, binding, tuple(args), (), None, 128)


class TestScreenCachedProgram:
    def test_identity_program_passes(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert _check(spec, SInput("ld0", 8, 16)) is None

    def test_unknown_input_flagged(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert "unknown input" in _check(spec, SInput("ghost", 8, 16))

    def test_width_mismatch_flagged(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert "width" in _check(spec, SInput("ld0", 4, 16))

    def test_output_width_mismatch_flagged(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert "output width" in _check(spec, SConstant(0, 4, 16))

    def test_provably_wrong_constant_flagged(self):
        spec = hir.HConst(3, 8, 16)
        assert "differs" in _check(spec, SConstant(5, 8, 16))

    def test_matching_constant_passes(self):
        spec = hir.HConst(3, 8, 16)
        assert _check(spec, SConstant(3, 8, 16)) is None

    def test_structural_failures_draw_no_randomness(self):
        # Callers share one RNG stream across candidates; a structural
        # rejection must leave that stream where it was.
        rng = random.Random(5)
        spec = hir.HLoad("ld0", 8, 16)
        assert check_stored_program(SInput("ghost", 8, 16), spec, rng, 3)
        assert rng.random() == random.Random(5).random()


class TestPersistentCacheScreen:
    @pytest.fixture(scope="class")
    def dictionary(self):
        return build_dictionary(("x86", "hvx", "arm"))

    def _window(self):
        return hir.HBin(
            "add", hir.HLoad("ld0", 8, 16), hir.HLoad("ld1", 8, 16)
        )

    def _served(self, tmp_path, dictionary, program):
        """Store ``program`` for the add window, then look it up."""
        spec = self._window()
        key = canonical_key(spec, "x86")
        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.put_entry(key, CacheEntry(program, 1.0, ["ld0", "ld1"]))
        entry_file = cache.dir / f"e-{_key_hash(key)}.json"
        assert entry_file.exists()
        return cache.lookup(spec, "x86"), cache, key, entry_file

    def _assert_evicted(self, tmp_path, dictionary, program):
        served, cache, key, entry_file = self._served(
            tmp_path, dictionary, program
        )
        assert served is None
        counters = cache.counters()
        assert counters["screened"] == 1
        assert counters["screen_failures"] == 1
        assert counters["hits"] == 0 and counters["misses"] == 1
        assert not entry_file.exists()
        assert key not in cache._entries

    def test_corrupt_entry_evicted_on_lookup(self, tmp_path, dictionary):
        # A program whose input width contradicts the specification —
        # the shape a bit-rotted entry file takes after deserialization.
        self._assert_evicted(tmp_path, dictionary, SInput("ld0", 4, 16))

    def test_plausible_entry_evicted_on_lookup(self, tmp_path, dictionary):
        # Well-typed, reads only the spec's loads, and equal to ``add``
        # on some inputs (ld1 == 0): only a concrete input refutes it.
        self._assert_evicted(tmp_path, dictionary, SInput("ld0", 8, 16))

    def test_same_shape_wrong_op_evicted_on_lookup(self, tmp_path, dictionary):
        name = "_mm_sub_epi16"
        op = dictionary.by_target_instruction[name]
        binding = next(b for b in op.bindings if b.spec.name == name)
        sub = SOp(
            op, binding, (SInput("ld0", 8, 16), SInput("ld1", 8, 16)),
            (), None, 128,
        )
        self._assert_evicted(tmp_path, dictionary, sub)

    def test_raising_entry_evicted_on_lookup(self, tmp_path, dictionary):
        # One operand lost: evaluating it raises, which is a failed
        # check, never a served hit.
        truncated = _add_op(dictionary, [SInput("ld0", 8, 16)])
        self._assert_evicted(tmp_path, dictionary, truncated)

    def test_correct_entry_survives(self, tmp_path, dictionary):
        program = _add_op(
            dictionary, [SInput("ld0", 8, 16), SInput("ld1", 8, 16)]
        )
        served, cache, _key, entry_file = self._served(
            tmp_path, dictionary, program
        )
        assert served is not None and served.program == program
        counters = cache.counters()
        assert counters["screened"] == 1
        assert counters["screen_failures"] == 0
        assert counters["hits"] == 1
        assert entry_file.exists()
