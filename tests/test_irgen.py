"""Tests for the parallel, persistent offline IR generator (repro.irgen).

Every irgen entry point covers every registered ISA; this module narrows
the registry to the hvx catalog (141 instructions, ~3s per engine run)
to keep every build here cheap.
"""

import json
from types import SimpleNamespace

import pytest

from repro.autollvm.intrinsics import dictionary_from_classes
from repro.hydride_ir.ast import BvBinOp, BvVar, Input
from repro.hydride_ir.indexexpr import IConst
from repro.irgen import (
    build_artifact,
    classes_and_stats,
    clear_memo,
    ensure_artifact,
    irgen_fingerprint,
    load_artifact,
    partition_digest,
    persist_artifact,
)
from repro.irgen import pipeline
from repro.irgen.artifact import (
    ARTIFACT_FILE,
    IRGEN_FORMAT_VERSION,
    artifact_dir,
    artifact_to_obj,
)
from repro.isa import registry
from repro.similarity.constants import SymbolicSemantics, skeleton_key
from repro.similarity.engine import EngineStats, SimilarityEngine, shard_key
from repro.synthesis.serialize import dictionary_fingerprint
from tests.support import parsed_symbolics

ISAS = ("hvx",)


@pytest.fixture(scope="module", autouse=True)
def hvx_registry():
    """A registry of one ISA: the one artifact is the hvx partition."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(registry, "SUPPORTED_ISAS", ISAS)
        yield


@pytest.fixture(scope="module")
def serial_reference():
    """The unsharded engine's partition — the determinism yardstick."""
    engine = SimilarityEngine()
    classes = engine.run(parsed_symbolics("hvx"))
    return classes, engine.stats


@pytest.fixture(scope="module")
def artifacts():
    """Sharded builds at several worker counts (built once per module)."""
    return {jobs: build_artifact(jobs=jobs) for jobs in (1, 2, 4)}


@pytest.fixture(scope="module")
def store(tmp_path_factory, artifacts):
    """A persisted artifact store holding the jobs=2 build."""
    root = tmp_path_factory.mktemp("irgen-store")
    persist_artifact(root, artifacts[2])
    return root


class TestShardedDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_partition_matches_serial(self, jobs, artifacts, serial_reference):
        serial_classes, serial_stats = serial_reference
        artifact = artifacts[jobs]
        assert partition_digest(artifact.classes) == partition_digest(
            serial_classes
        )
        # Same comparisons were performed, not merely the same outcome.
        assert artifact.stats.checks == serial_stats.checks
        assert artifact.stats.instructions == serial_stats.instructions
        assert artifact.stats.classes == serial_stats.classes

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_dictionary_matches_serial(self, jobs, artifacts, serial_reference):
        serial_classes, _stats = serial_reference
        reference = dictionary_from_classes(ISAS, serial_classes)
        dictionary = dictionary_from_classes(ISAS, artifacts[jobs].classes)
        assert [op.name for op in dictionary.ops] == [
            op.name for op in reference.ops
        ]
        assert dictionary_fingerprint(dictionary) == dictionary_fingerprint(
            reference
        )

    def test_member_orders_identical(self, artifacts, serial_reference):
        serial_classes, _stats = serial_reference
        built = artifacts[4].classes
        assert len(built) == len(serial_classes)
        for ours, theirs in zip(built, serial_classes):
            assert [(m.name, m.arg_order) for m in ours.members] == [
                (m.name, m.arg_order) for m in theirs.members
            ]

    def test_payload_identical_across_jobs(self, artifacts):
        """Loop names are canonical and the node table is numbered in
        member order, so how the catalog was sliced across workers leaves
        no trace in the persisted artifact: the whole payload, minus the
        timings, the build time and the worker count, is byte-identical."""
        payloads = {}
        for jobs, artifact in artifacts.items():
            obj = artifact_to_obj(artifact)
            for key in ("phase_seconds", "built_at", "jobs"):
                del obj[key]
            del obj["stats"]["seconds"]
            payloads[jobs] = json.dumps(obj, sort_keys=True)
        assert payloads[1] == payloads[2] == payloads[4]
        assert len(artifact_to_obj(artifacts[1])["nodes"]) > 0

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_lowering_paths_counted(self, jobs, artifacts):
        stats = artifacts[jobs].stats
        assert (stats.specs_lowered_direct, stats.specs_rerolled) == (123, 18)

    def test_shard_key_groups_cover_catalog(self):
        symbolics = parsed_symbolics("hvx")
        groups = {}
        for symbolic in symbolics:
            groups.setdefault(shard_key(symbolic), []).append(symbolic)
        assert sum(len(g) for g in groups.values()) == len(symbolics)
        # Sharding is only worth anything if there is more than one shard.
        assert len(groups) > 1


class TestArtifactStore:
    def test_round_trip(self, store, artifacts):
        original = artifacts[2]
        loaded = load_artifact(store, original.fingerprint)
        assert loaded is not None
        assert loaded.loaded and loaded.loaded_from
        assert partition_digest(loaded.classes) == partition_digest(
            original.classes
        )
        assert loaded.stats.to_dict() == original.stats.to_dict()
        assert dictionary_fingerprint(
            dictionary_from_classes(ISAS, loaded.classes)
        ) == dictionary_fingerprint(
            dictionary_from_classes(ISAS, original.classes)
        )

    def test_decode_pauses_the_collector_and_restores_it(
        self, store, artifacts, monkeypatch
    ):
        import gc

        from repro.irgen import artifact as artifact_module

        real = artifact_module.artifact_from_obj
        during = []

        def recording(obj):
            during.append(gc.isenabled())
            return real(obj)

        monkeypatch.setattr(artifact_module, "artifact_from_obj", recording)
        assert gc.isenabled()
        assert load_artifact(store, artifacts[2].fingerprint) is not None
        assert during == [False] and gc.isenabled()

        def failing(obj):
            raise RuntimeError("decoder crashed")

        monkeypatch.setattr(artifact_module, "artifact_from_obj", failing)
        with pytest.raises(RuntimeError):
            load_artifact(store, artifacts[2].fingerprint)
        assert gc.isenabled()
        # A caller that had paused the collector keeps it paused.
        monkeypatch.setattr(artifact_module, "artifact_from_obj", recording)
        gc.disable()
        try:
            assert load_artifact(store, artifacts[2].fingerprint) is not None
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "label",
        [
            "stale version", "no node table", "unknown tag",
            "forward reference", "bool reference", "body is an index",
            "member record truncated", "not an object",
        ],
    )
    def test_corrupt_v2_payload_is_a_recovered_miss(
        self, store, artifacts, tmp_path, label
    ):
        from repro.perf import global_counters

        fingerprint = artifacts[2].fingerprint
        obj = json.loads(
            (artifact_dir(store, fingerprint) / ARTIFACT_FILE).read_text()
        )
        record = obj["classes"][0]["members"][0][1]
        index_row = next(
            i for i, row in enumerate(obj["nodes"]) if row[0] == "p"
        )
        if label == "stale version":
            obj["version"] = 1
        elif label == "no node table":
            del obj["nodes"]
        elif label == "unknown tag":
            obj["nodes"][-1] = ["Z", 0]
        elif label == "forward reference":
            obj["nodes"][0] = ["X", len(obj["nodes"]), 0, 0]
        elif label == "bool reference":
            record[3] = True
        elif label == "body is an index":
            record[3] = index_row
        elif label == "member record truncated":
            del record[-1]
        else:
            obj = [obj]
        directory = artifact_dir(tmp_path, fingerprint)
        directory.mkdir(parents=True)
        (directory / ARTIFACT_FILE).write_text(json.dumps(obj))
        perf = global_counters()
        before = perf.fault_recoveries
        assert load_artifact(tmp_path, fingerprint) is None
        assert perf.fault_recoveries == before + 1

    def test_missing_fingerprint_is_a_miss(self, store):
        assert load_artifact(store, "0" * 64) is None

    def test_corrupt_payload_is_a_miss(self, store, artifacts, tmp_path):
        fingerprint = artifacts[2].fingerprint
        broken_root = tmp_path / "broken"
        directory = artifact_dir(broken_root, fingerprint)
        directory.mkdir(parents=True)
        (directory / ARTIFACT_FILE).write_text("{not json")
        assert load_artifact(broken_root, fingerprint) is None

    def test_warm_load_does_no_equivalence_checking(self, store, artifacts):
        from repro.perf import snapshot, snapshot_delta

        clear_memo()
        before = snapshot()
        artifact = ensure_artifact(str(store))
        delta = snapshot_delta(before)
        assert artifact.loaded
        assert delta["seconds_irgen_check"] == 0.0
        assert delta["seconds_irgen_parse"] == 0.0
        # The build-time stats still travel with the artifact.
        assert artifact.stats.checks == artifacts[2].stats.checks

    def test_classes_and_stats_prefers_artifact(self, store, monkeypatch):
        import repro.irgen as irgen

        def no_build(*_args):
            raise AssertionError("a stored artifact was rebuilt")

        monkeypatch.setenv("REPRO_IRGEN_CACHE", str(store))
        monkeypatch.setattr(irgen, "build_artifact", no_build)
        clear_memo()
        classes, stats = classes_and_stats()
        assert stats.checks > 0
        assert partition_digest(classes) == partition_digest(
            load_artifact(store, irgen_fingerprint()).classes
        )

    def test_build_fault_surfaces_typed(self, monkeypatch):
        """No fallback builder: an ``irgen.build`` fault reaches the
        caller as the typed fault, with or without a store."""
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec, InjectedFault

        monkeypatch.delenv("REPRO_IRGEN_CACHE", raising=False)
        clear_memo()
        faults.install_plan(FaultPlan([FaultSpec("irgen.build", "raise")]))
        try:
            with pytest.raises(InjectedFault):
                classes_and_stats()
        finally:
            faults.clear_plan()

    def test_cli_build_expect_cached(self, store, capsys):
        from repro.irgen.cli import main

        clear_memo()
        assert (
            main(
                [
                    "build", "--cache-dir", str(store),
                    "--isas", "hvx", "--expect-cached",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "loaded hvx" in out
        assert "(nodes=" in out and "(nodes=0," not in out
        assert "walls=parse:" in out
        assert "lowering=direct:123/rerolled:18" in out

    def test_cli_build_rejects_unknown_isa(self, store, capsys):
        from repro.irgen.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["build", "--cache-dir", str(store), "--isas", "hvx,vax"])
        assert exc.value.code == 2
        assert "vax" in capsys.readouterr().err

    def test_cli_stats_lists_namespace(self, store, artifacts, capsys):
        from repro.irgen.cli import main

        assert main(["stats", "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert artifacts[2].fingerprint[:16] in out
        assert "truncations=" in out
        # Where the cold build went: the pool's refinements apart from merge.
        assert {"parse_wall", "check_wall", "refine", "merge"} <= set(
            artifacts[2].phase_seconds
        )
        assert "/refine:" in out and "/merge:" in out
        assert main(["stats", "--cache-dir", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["namespaces"][0]["complete"] is True
        assert payload["namespaces"][0]["format"] == IRGEN_FORMAT_VERSION
        on_disk = json.loads(
            (artifact_dir(store, artifacts[2].fingerprint) / ARTIFACT_FILE).read_text()
        )
        assert payload["namespaces"][0]["nodes"] == len(on_disk["nodes"]) > 0
        stats = payload["namespaces"][0]["stats"]
        assert (stats["specs_lowered_direct"], stats["specs_rerolled"]) == (123, 18)


class TestBuildProcessBoundaries:
    """What the build hands its pools, and the collector around it."""

    @staticmethod
    def _recording(monkeypatch):
        import gc

        real = pipeline._pool_map
        calls = []

        def recording(func, tasks, jobs, *shared):
            results = real(func, tasks, jobs, *shared)
            calls.append((func.__name__, tasks, results, gc.isenabled()))
            return results

        monkeypatch.setattr(pipeline, "_pool_map", recording)
        return calls

    def test_tasks_are_indices_and_results_plain_data(self, monkeypatch):
        from repro.hydride_ir.ast import BvExpr
        from repro.hydride_ir.indexexpr import IndexExpr

        def unpicklable(self, protocol):
            raise AssertionError(f"pickled {type(self).__name__}")

        # Nothing pickles IR on the way to a worker or back from one.
        for cls in (SymbolicSemantics, BvExpr, IndexExpr):
            monkeypatch.setattr(cls, "__reduce_ex__", unpicklable, raising=False)
        calls = self._recording(monkeypatch)
        artifact = build_artifact(jobs=2)
        assert [name for name, *_rest in calls] == [
            "_parse_task", "_check_task", "_refine_task",
        ]
        by_name = {name: (tasks, results) for name, tasks, results, _gc in calls}

        def plain(value):
            if isinstance(value, (list, tuple)):
                return all(plain(item) for item in value)
            if isinstance(value, dict):
                return all(plain(k) and plain(v) for k, v in value.items())
            return value is None or isinstance(value, (int, float, str))

        def ints(value):
            if isinstance(value, (list, tuple)):
                return all(ints(item) for item in value)
            return type(value) is int

        # Check and refine tasks name symbolics by global index only.
        assert ints(by_name["_check_task"][0])
        assert ints(by_name["_refine_task"][0])
        # Every result a worker sends back is plain data: no IR objects.
        for _name, (_tasks, results) in by_name.items():
            assert plain(results)
        # Both partitions of the catalog were covered exactly once.
        checked = sorted(g for task in by_name["_check_task"][0] for g in task)
        assert checked == list(range(artifact.stats.instructions))
        classes = [
            cls for encoded, _stats in by_name["_check_task"][1] for cls in encoded
        ]
        assert len(by_name["_refine_task"][0]) == len(classes)

    def test_build_pauses_the_collector_and_restores_it(self, monkeypatch):
        import gc

        calls = self._recording(monkeypatch)
        assert gc.isenabled()
        build_artifact(jobs=1)
        assert [paused for *_rest, paused in calls] == [False] * 3
        assert gc.isenabled()

        real = pipeline._pool_map

        def failing(func, tasks, jobs, *shared):
            # The check phase crashes after the parse went through.
            if func is pipeline._check_task:
                raise RuntimeError("phase crashed")
            return real(func, tasks, jobs, *shared)

        monkeypatch.setattr(pipeline, "_pool_map", failing)
        with pytest.raises(RuntimeError):
            build_artifact(jobs=1)
        assert gc.isenabled()
        # A caller that had paused the collector keeps it paused.
        gc.disable()
        try:
            with pytest.raises(RuntimeError):
                build_artifact(jobs=1)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFingerprintInvalidation:
    def test_extra_salt_changes_fingerprint(self):
        base = irgen_fingerprint()
        assert irgen_fingerprint(extra=("salt",)) != base
        assert irgen_fingerprint(extra=("salt",)) == irgen_fingerprint(
            extra=("salt",)
        )

    def test_spec_text_changes_fingerprint(self):
        spec = SimpleNamespace(
            isa="fake", name="op", family="f", extension="e",
            output_width=128, pseudocode="a + b",
            operands=[SimpleNamespace(name="a", width=128, is_immediate=False)],
        )
        catalog_a = [spec]
        edited = SimpleNamespace(**{**vars(spec), "pseudocode": "a - b"})
        assert irgen_fingerprint(
            catalogs={"fake": catalog_a}
        ) != irgen_fingerprint(catalogs={"fake": [edited]})

    def test_stale_artifact_triggers_rebuild(self, store, artifacts):
        # A salted fingerprint misses the persisted namespace: ensure
        # rebuilds and persists into a new one.
        clear_memo()
        salted = ensure_artifact(str(store), jobs=1, extra=("invalidate",))
        assert not salted.loaded
        assert salted.fingerprint != artifacts[2].fingerprint
        assert artifact_dir(store, salted.fingerprint).exists()
        assert partition_digest(salted.classes) == partition_digest(
            artifacts[2].classes
        )

    def test_unwritable_store_keeps_the_built_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        """A save that fails costs the store its write, not the process
        its partition: no second build by the serial engine.  The build
        CLI still reports the store it could not write."""
        import repro.irgen as irgen
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec
        from repro.irgen.cli import main
        from repro.perf import global_counters

        monkeypatch.setenv("REPRO_IRGEN_CACHE", str(tmp_path))
        monkeypatch.setattr(irgen, "default_jobs", lambda: 1)
        clear_memo()
        recoveries = global_counters().fault_recoveries
        faults.install_plan(FaultPlan([FaultSpec("irgen.save", "raise")]))
        try:
            classes, _stats = classes_and_stats()
            recovered = global_counters().fault_recoveries - recoveries
            status = main(["build", "--cache-dir", str(tmp_path)])
        finally:
            faults.clear_plan()
            clear_memo()
        assert classes
        assert recovered == 1
        assert list(tmp_path.iterdir()) == []
        assert status == 1
        assert "could not write" in capsys.readouterr().err


class TestEngineStats:
    def test_round_trip(self):
        stats = EngineStats(
            instructions=10, classes=4, checks=7, permute_merges=1,
            hole_merges=2, attempt_truncations=3, seconds=1.25,
            checker_stats={"structural": 5},
        )
        assert EngineStats.from_dict(stats.to_dict()).to_dict() == (
            stats.to_dict()
        )

    def test_attempt_truncations_counted(self):
        def symbolic(name, swapped):
            # Declared input order stays (a, b); swapping the *body*'s
            # operand order changes the skeleton (v1 before v0) without
            # touching the signature or the operator multiset.
            operands = ("b", "a") if swapped else ("a", "b")
            body = BvBinOp("bvadd", BvVar(operands[0]), BvVar(operands[1]))
            inputs = (
                Input("a", IConst(32), False), Input("b", IConst(32), False),
            )
            sym = SymbolicSemantics(name, "fake", inputs, body, (), {})
            sym.skeleton = skeleton_key(sym)
            return sym

        # With a zero attempt budget the candidate comparison is skipped
        # and counted instead of performed.
        first = symbolic("f", swapped=False)
        second = symbolic("g", swapped=True)
        assert first.skeleton != second.skeleton
        assert shard_key(first) == shard_key(second)
        engine = SimilarityEngine()
        engine.max_semantic_attempts = 0
        engine.insert(first)
        engine.insert(second)
        assert engine.stats.attempt_truncations == 1
        assert engine.stats.checks == 0
