"""Cross-window reuse: counterexample suites and learned clauses.

The reuse store round-trips counterexample suites and spec-cone clauses
across renames, processes, and corrupt files; its writes go through the
fault plane and never fail a compile.
"""

import json

import pytest

from repro import faults
from repro.bitvector.bv import BitVector
from repro.faults import FaultPlan, FaultSpec
from repro.halide import ir as hir
from repro.perf import global_counters
from repro.service.store import reap_tmp
from repro.smt.solver import IncrementalSatContext
from repro.smt.terms import apply_op, var
from repro.synthesis import ReuseStore
from repro.synthesis.reuse import REUSE_VERSION


@pytest.fixture(autouse=True)
def _no_leftover_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    yield
    faults.clear_plan()


def _add_window(lanes=16, ew=16):
    return hir.HBin(
        "add", hir.HLoad("ld0", lanes, ew), hir.HLoad("ld1", lanes, ew)
    )


class TestReuseStore:
    ISA = "x86"

    def _record_two_envs(self, store, spec):
        width = spec.type.lanes * spec.type.elem_width
        store.record_env(
            spec, self.ISA,
            {"ld0": BitVector(7, width), "ld1": BitVector(9, width)},
        )
        store.record_env(
            spec, self.ISA,
            {"ld0": BitVector(1, width), "ld1": BitVector(2, width)},
        )
        return width

    def test_envs_round_trip_across_renamed_loads(self):
        store = ReuseStore()
        spec = _add_window()
        width = self._record_two_envs(store, spec)
        renamed = hir.HBin(
            "add", hir.HLoad("p", 16, 16), hir.HLoad("q", 16, 16)
        )
        envs = store.lookup_envs(renamed, self.ISA)
        assert len(envs) == 2
        assert envs[0] == {
            "p": BitVector(7, width), "q": BitVector(9, width),
        }

    def test_duplicate_envs_not_stored_twice(self):
        store = ReuseStore()
        spec = _add_window()
        self._record_two_envs(store, spec)
        self._record_two_envs(store, spec)
        assert store.counters()["envs"] == 2

    def test_max_envs_cap(self):
        store = ReuseStore(max_envs=3)
        spec = _add_window()
        for i in range(6):
            store.record_env(
                spec, self.ISA,
                {"ld0": BitVector(i, 256), "ld1": BitVector(i + 1, 256)},
            )
        assert store.counters()["envs"] == 3

    def test_width_mismatch_filtered_on_lookup(self):
        store = ReuseStore()
        self._record_two_envs(store, _add_window())
        narrower = _add_window(lanes=8)
        # Different spec -> different key -> clean miss, not a bad remap.
        assert store.lookup_envs(narrower, self.ISA) == []

    def test_persistence_round_trip(self, tmp_path):
        store = ReuseStore(tmp_path)
        spec = _add_window()
        self._record_two_envs(store, spec)
        store.record_clauses(spec, self.ISA, 40, [(1, -2), (3, 4, -5)])
        store.flush()
        fresh = ReuseStore(tmp_path)
        assert len(fresh.lookup_envs(spec, self.ISA)) == 2
        cone, clauses = fresh.lookup_clauses(spec, self.ISA)
        assert cone == 40
        assert clauses == [(1, -2), (3, 4, -5)]

    def test_corrupt_file_ignored(self, tmp_path):
        store = ReuseStore(tmp_path)
        spec = _add_window()
        self._record_two_envs(store, spec)
        store.flush()
        path = store._path_for(store.key_for(spec, self.ISA))
        path.write_text("{ torn json")
        fresh = ReuseStore(tmp_path)
        assert fresh.lookup_envs(spec, self.ISA) == []

    def test_key_collision_detected(self, tmp_path):
        store = ReuseStore(tmp_path)
        spec = _add_window()
        self._record_two_envs(store, spec)
        store.flush()
        path = store._path_for(store.key_for(spec, self.ISA))
        obj = json.loads(path.read_text())
        obj["key"] = "some-other-spec"
        path.write_text(json.dumps(obj))
        fresh = ReuseStore(tmp_path)
        assert fresh.lookup_envs(spec, self.ISA) == []

    def test_entries_from_before_gate_hashing_are_not_preloaded(self, tmp_path):
        """Gate hashing keeps the cone size of an ``a + b`` spec but flips
        the polarity of some of its variables, so a version-1 suite with
        a matching ``cone_vars`` would still replay wrong clauses."""
        spec = _add_window(lanes=1, ew=32)
        cone = IncrementalSatContext().prime(hir.to_term(spec))
        store = ReuseStore(tmp_path)
        store.record_clauses(spec, self.ISA, cone, [(1, -2), (3, 4, -5)])
        store.flush()
        path = store._path_for(store.key_for(spec, self.ISA))
        obj = json.loads(path.read_text())
        assert obj["version"] == REUSE_VERSION == 2
        assert ReuseStore(tmp_path).lookup_clauses(spec, self.ISA)[0] == cone

        obj["version"] = 1
        path.write_text(json.dumps(obj))
        assert ReuseStore(tmp_path).lookup_clauses(spec, self.ISA) == (0, [])

    def test_clause_cone_mismatch_invalidates(self):
        store = ReuseStore()
        spec = _add_window()
        store.record_clauses(spec, self.ISA, 40, [(1, -2)])
        # A different blast layout: the stored suite must not be mixed in.
        store.record_clauses(spec, self.ISA, 44, [(3,)])
        cone, clauses = store.lookup_clauses(spec, self.ISA)
        assert cone == 44
        assert clauses == [(3,)]

    def test_payload_merge_carries_child_discoveries(self):
        child = ReuseStore()
        spec = _add_window()
        self._record_two_envs(child, spec)
        child.record_clauses(spec, self.ISA, 40, [(1, -2)])
        parent = ReuseStore()
        parent.merge(child.payload())
        assert len(parent.lookup_envs(spec, self.ISA)) == 2
        assert parent.lookup_clauses(spec, self.ISA) == (40, [(1, -2)])


class TestFlushFaults:
    """``flush`` writes through ``store.atomic_write``: inside the fault
    plane, never failing the compile, torn files read back as misses."""

    ISA = "x86"

    def _dirty_store(self, root):
        store = ReuseStore(root)
        spec = _add_window()
        store.record_env(
            spec, self.ISA,
            {"ld0": BitVector(7, 256), "ld1": BitVector(9, 256)},
        )
        return store, spec

    def test_corrupt_write_is_a_miss_on_next_lookup(self, tmp_path):
        store, spec = self._dirty_store(tmp_path)
        plan = FaultPlan([FaultSpec("store.atomic_write", "corrupt")])
        faults.install_plan(plan)
        store.flush()
        assert [site for site, _, _ in plan.fired] == ["store.atomic_write"]
        faults.clear_plan()
        path = store._path_for(store.key_for(spec, self.ISA))
        assert "\x00" in path.read_text()
        assert ReuseStore(tmp_path).lookup_envs(spec, self.ISA) == []

    def test_crash_is_absorbed_and_leaves_only_reapable_litter(self, tmp_path):
        store, spec = self._dirty_store(tmp_path)
        recoveries = global_counters().fault_recoveries
        faults.install_plan(
            FaultPlan([FaultSpec("store.atomic_write.crash", "raise")])
        )
        store.flush()  # must not raise
        faults.clear_plan()
        assert global_counters().fault_recoveries == recoveries + 1
        assert not list(tmp_path.glob("r-*.json"))
        assert ReuseStore(tmp_path).lookup_envs(spec, self.ISA) == []
        assert reap_tmp(tmp_path, min_age_seconds=0.0) == 1
        # The entry stayed dirty: the next flush lands it.
        store.flush()
        assert len(ReuseStore(tmp_path).lookup_envs(spec, self.ISA)) == 1


class TestClauseTransfer:
    def test_export_confined_to_spec_cone_and_reimportable(self):
        x, y = var("x", 8), var("y", 8)
        spec = apply_op("bvadd", [x, y])
        ctx = IncrementalSatContext()
        cone = ctx.prime(spec)
        assert cone > 0
        # Burn some conflicts: commuted addition is UNSAT-different.
        other = apply_op("bvadd", [y, x])
        assert not ctx.check_not_equal(spec, other).satisfiable
        exported = ctx.export_learned()
        for clause in exported:
            assert all(abs(lit) <= cone for lit in clause)

        sibling = IncrementalSatContext()
        assert sibling.prime(spec) == cone  # deterministic blast layout
        assert sibling.import_clauses(exported) == len(exported)
        assert not sibling.check_not_equal(spec, other).satisfiable

    def test_import_filters_out_of_cone_clauses(self):
        x, y = var("x", 4), var("y", 4)
        ctx = IncrementalSatContext()
        cone = ctx.prime(apply_op("bvadd", [x, y]))
        added = ctx.import_clauses([(1, -2), (cone + 1,), ()])
        assert added == 1  # stale layout + empty clauses dropped

    def test_import_requires_primed_context(self):
        with pytest.raises(RuntimeError):
            IncrementalSatContext().import_clauses([(1,)])

    def test_prime_must_precede_queries(self):
        x = var("x", 4)
        ctx = IncrementalSatContext()
        ctx.check_not_equal(x, apply_op("bvnot", [x]))
        with pytest.raises(RuntimeError):
            ctx.prime(x)
