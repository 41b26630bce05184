"""The alpha-equivalence rung in front of the similarity ladder.

``check_similar`` settles a pair on the parameterised IR when the two
``alpha_key``s are equal; any explicit ``order_b`` (the identity included)
still goes through instantiate-and-check, which is the reference here.
"""

import dataclasses
import random

import pytest

from repro.hydride_ir.ast import (
    BvBinOp,
    BvExpr,
    BvExtract,
    BvVar,
    ForConcat,
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IBin, IConst, IndexExpr, IParam, IVar
from repro.autollvm.intrinsics import dictionary_from_classes
import repro.irgen as irgen
from repro.irgen import build_artifact, load_artifact, persist_artifact
from repro.irgen import classes_and_stats, clear_memo, partition_digest, pipeline
from repro.isa import registry
from repro.similarity import engine as engine_module
from repro.similarity import equivalence, holes
from repro.similarity.constants import extract_constants
from repro.similarity.engine import SimilarityEngine
from repro.similarity.eqclass import restrict_classes
from repro.similarity.equivalence import check_similar
from repro.smt import solver
from repro.smt.solver import EquivalenceChecker
from repro.synthesis.serialize import dictionary_fingerprint
from tests.support import parsed_symbolics

CORE = ("x86", "hvx", "arm")
GOLDEN = {
    CORE: (231, "9c9ad24eee7627bf216cde8d22513afe74e070c26dcb6546db9fc26b51108ea8"),
    CORE + ("rvv",): (
        252, "51010be78e1caf39ae5c6248ff844d8d9f6531f2d3f3d0156963a72729fc98bd",
    ),
}
# The four-ISA build's accounting: checks, ladder verdicts, skipped
# refinements, and pass-2 / pass-3 merges.  ``structural`` holds the 187
# hole identities of pass 3's refinements, wherever they ran.
RUNGS = {"alpha": 1429, "structural": 232, "fuzz": 23, "exhaustive": 0, "sat": 0, "probabilistic": 0}
ACCOUNTING = (1462, RUNGS, 0, 4, 3)


def _accounting(stats):
    return (
        stats.checks, stats.checker_stats, stats.uninstantiable,
        stats.permute_merges, stats.hole_merges,
    )


def _build(isas, jobs):
    """The artifact of a registry holding exactly ``isas``."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(registry, "SUPPORTED_ISAS", isas)
        return build_artifact(jobs=jobs)


def _identity(symbolic):
    return tuple(range(len(symbolic.inputs)))


def _ladder(a, b):
    """The instantiate-and-check verdict (an explicit order skips the rung)."""
    checker = EquivalenceChecker(seed=1)
    verdict = check_similar(a, b, checker, _identity(b))
    assert checker.stats["alpha"] == 0
    return verdict


def _map(node, fn):
    """Rebuild an IR tree bottom-up, offering every node to ``fn`` after
    its children (in field order)."""
    if isinstance(node, tuple):
        return tuple(_map(item, fn) for item in node)
    if not isinstance(node, (BvExpr, IndexExpr)):
        return node
    return fn(type(node)(*(
        _map(getattr(node, f.name), fn) for f in dataclasses.fields(node)
    )))


def _with(symbolic, body_fn=None, inputs=None):
    body = symbolic.body
    if body_fn is not None:
        body = _map(body, body_fn)
    return dataclasses.replace(
        symbolic, body=body, inputs=inputs or symbolic.inputs
    )


def _first(predicate, replacement):
    """A ``_map`` callback rewriting only the first node ``predicate`` takes."""
    done = []

    def fn(node):
        if not done and predicate(node):
            done.append(node)
            return replacement(node)
        return node

    return fn


def _is_param(node):
    return isinstance(node, IParam)


def _mutants(symbolic):
    """(label, base, mutant) triples; each mutant is one edit from its base."""
    values = symbolic.param_values
    pinned = _with(symbolic, _first(_is_param, lambda n: IConst(values[n.name])))
    yield "param pinned to its constant", symbolic, pinned
    yield "one constant changed", pinned, _with(
        symbolic, _first(_is_param, lambda n: IConst(values[n.name] + 8))
    )
    used: list[str] = []

    def note(node):
        if _is_param(node) and node.name not in used:
            used.append(node.name)
        return node

    _map(symbolic.body, note)
    if len(used) >= 2:
        swap = {used[0]: used[1], used[1]: used[0]}
        yield "two parameter names swapped", symbolic, _with(
            symbolic,
            lambda n: IParam(swap.get(n.name, n.name)) if _is_param(n) else n,
        )
    first, rest = symbolic.inputs[0], symbolic.inputs[1:]
    yield "is_immediate flipped", symbolic, _with(
        symbolic,
        inputs=(Input(first.name, first.width, not first.is_immediate),) + rest,
    )
    other = next(
        p for p in reversed(symbolic.param_names)
        if first.width != IParam(p)
    )
    yield "input width parameter changed", symbolic, _with(
        symbolic,
        inputs=(Input(first.name, IParam(other), first.is_immediate),) + rest,
    )
    swapped_op = {"bvadd": "bvsub", "bvsub": "bvadd", "bvand": "bvor", "bvor": "bvand"}
    mutant = _with(
        symbolic,
        _first(
            lambda n: isinstance(n, BvBinOp) and n.op in swapped_op,
            lambda n: dataclasses.replace(n, op=swapped_op[n.op]),
        ),
    )
    if mutant.body != symbolic.body:
        yield "one operator replaced", symbolic, mutant


class _Build:
    """The jobs=1 four-ISA build, with every pair the rung accepted, the
    lowerings made on the rung, and the lowerings pass 3 asked for."""

    def __init__(self):
        self.accepted = []
        self.lowered_on_rung = 0
        self.hole_lowerings = []
        lowerings = []
        real_check = engine_module.check_similar
        real_instantiate = equivalence.instantiate_term
        real_hole_lowered = holes.lowered

        def check(a, b, checker, order_b=None):
            before = checker.stats["alpha"], len(lowerings)
            verdict = real_check(a, b, checker, order_b)
            if checker.stats["alpha"] > before[0]:
                self.lowered_on_rung += len(lowerings) - before[1]
                if verdict:
                    self.accepted.append((a, b))
            return verdict

        def instantiate(*args):
            lowerings.append(args)
            return real_instantiate(*args)

        def hole_lowered(symbolic, *args):
            self.hole_lowerings.append(symbolic.name)
            return real_hole_lowered(symbolic, *args)

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(engine_module, "check_similar", check)
            patcher.setattr(equivalence, "instantiate_term", instantiate)
            patcher.setattr(holes, "lowered", hole_lowered)
            self.artifact = build_artifact(jobs=1)
        assert self.artifact.isas == CORE + ("rvv",)


@pytest.fixture(scope="module")
def four_isa_build():
    build = _Build()
    return build.artifact, build.accepted, build


@pytest.fixture(scope="module")
def sharded_four_isa_build():
    return _build(CORE + ("rvv",), jobs=2)


class TestGoldenPartitions:
    @pytest.mark.parametrize("isas", list(GOLDEN))
    def test_sharded_build(self, isas, sharded_four_isa_build):
        artifact = sharded_four_isa_build
        if isas != artifact.isas:
            artifact = _build(isas, jobs=2)
        assert (len(artifact.classes), artifact.digest()) == GOLDEN[isas]

    def test_accounting(self, four_isa_build, sharded_four_isa_build):
        artifact, _accepted, _build_record = four_isa_build
        assert _accounting(artifact.stats) == ACCOUNTING
        assert _accounting(sharded_four_isa_build.stats) == ACCOUNTING
        serial = SimilarityEngine()
        classes = serial.run(
            [s for isa in CORE + ("rvv",) for s in parsed_symbolics(isa)]
        )
        assert _accounting(serial.stats) == ACCOUNTING
        assert (len(classes), partition_digest(classes)) == GOLDEN[CORE + ("rvv",)]

    def test_storeless_partition_is_one_memoised_build(self, monkeypatch):
        """With no store, the partition is the pipeline build a store
        miss makes, run once per process."""
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        real = irgen.build_artifact
        monkeypatch.delenv("REPRO_IRGEN_CACHE", raising=False)
        monkeypatch.setattr(irgen, "build_artifact", counting)
        clear_memo()
        classes, _stats = classes_and_stats()
        assert classes_and_stats()[0] is classes
        assert calls == [(irgen.default_jobs(), ())]
        assert (len(classes), partition_digest(classes)) == GOLDEN[CORE + ("rvv",)]

    def test_build_lowers_no_term_on_the_rung_or_for_a_hole(self, four_isa_build):
        _artifact, _accepted, record = four_isa_build
        assert record.lowered_on_rung == 0
        assert record.hole_lowerings == []

    def test_inline_builds(self, four_isa_build):
        artifact, _accepted, _build_record = four_isa_build
        assert (len(artifact.classes), artifact.digest()) == GOLDEN[artifact.isas]
        core = _build(CORE, jobs=1)
        assert (len(core.classes), core.digest()) == GOLDEN[CORE]
        assert (core.stats.hole_merges, core.stats.permute_merges) == (3, 3)
        assert (artifact.stats.hole_merges, artifact.stats.permute_merges) == (3, 4)

    def test_core_is_a_restriction_of_the_one_partition(self, four_isa_build):
        """The 3-ISA partition a core-only registry builds is the one
        partition restricted to the core ISAs: same classes, ids and
        members, so the core dictionary is bit for bit the historical one."""
        artifact, _accepted, _build_record = four_isa_build
        core = restrict_classes(artifact.classes, set(CORE))
        assert (len(core), partition_digest(core)) == GOLDEN[CORE]
        assert [cls.class_id for cls in core] == list(range(len(core)))
        assert dictionary_fingerprint(
            dictionary_from_classes(CORE, artifact.classes)
        ).startswith("d347c9f0554a43ac")
        assert dictionary_fingerprint(
            dictionary_from_classes(artifact.isas, artifact.classes)
        ).startswith("fe498b014c9888b1")


class TestRungAgainstLadder:
    def test_every_accepted_pair_is_similar_by_the_ladder(self, four_isa_build):
        _artifact, accepted, _build_record = four_isa_build
        assert accepted
        refused = [(a.name, b.name) for a, b in accepted if not _ladder(a, b)]
        assert refused == []

    def test_rung_settles_nearly_every_comparison(self, four_isa_build):
        artifact, accepted, _build_record = four_isa_build
        stats = artifact.stats
        assert stats.checker_stats["alpha"] >= 0.95 * stats.checks
        assert stats.checker_stats["alpha"] >= len(accepted)
        assert stats.uninstantiable == 0

    def test_mutants_leave_the_rung_and_keep_the_verdict(self):
        symbolics = random.Random(24).sample(parsed_symbolics("hvx"), 10)
        labels = set()
        for symbolic in symbolics:
            for label, base, mutant in _mutants(symbolic):
                labels.add(label)
                assert base.alpha_key != mutant.alpha_key, (symbolic.name, label)
                checker = EquivalenceChecker(seed=1)
                assert check_similar(base, mutant, checker) == _ladder(
                    base, mutant
                ), (symbolic.name, label)
                assert checker.stats["alpha"] == 0
        assert len(labels) == 6


class TestAlphaKey:
    def test_invariant_under_input_and_iterator_renaming(self):
        def rename(node):
            if isinstance(node, (BvVar, IVar)):
                return type(node)("renamed_" + node.name)
            if isinstance(node, ForConcat):
                return dataclasses.replace(node, var="renamed_" + node.var)
            return node

        for symbolic in random.Random(7).sample(parsed_symbolics("hvx"), 10):
            inputs = tuple(
                Input("renamed_" + i.name, i.width, i.is_immediate)
                for i in symbolic.inputs
            )
            renamed = _with(symbolic, rename, inputs)
            assert renamed.body != symbolic.body
            assert renamed.alpha_key == symbolic.alpha_key
            checker = EquivalenceChecker(seed=1)
            assert check_similar(symbolic, renamed, checker)
            assert (checker.stats["alpha"], checker.stats["structural"]) == (1, 0)

    def test_explicit_order_never_takes_the_rung(self):
        symbolic = parsed_symbolics("hvx")[0]
        checker = EquivalenceChecker(seed=1)
        assert check_similar(symbolic, symbolic, checker, _identity(symbolic))
        assert checker.stats["alpha"] == 0
        assert checker.stats["structural"] > 0

    def test_lowering_is_memoised_per_checker(self, monkeypatch):
        """The rung walks each ``(alpha_key, values)`` once and lowers
        nothing; the ladder lowers each ``(alpha_key, values, order)``
        once, and a walk of a key already lowered reads the term's memo."""
        lowerings, walks = [], []
        real_instantiate = equivalence.instantiate_term
        real_walk = equivalence.check_instantiable
        monkeypatch.setattr(
            equivalence, "instantiate_term",
            lambda *args: lowerings.append(args) or real_instantiate(*args),
        )
        monkeypatch.setattr(
            equivalence, "check_instantiable",
            lambda *args: walks.append(args) or real_walk(*args),
        )
        a, b = parsed_symbolics("hvx")[:2]
        renamed = dataclasses.replace(a, name="renamed")
        checker = EquivalenceChecker(seed=1)
        for _ in range(3):
            assert check_similar(a, renamed, checker)
        assert (len(walks), len(lowerings), checker.stats["alpha"]) == (1, 0, 3)
        assert len(checker.instantiable) == 1
        for _ in range(3):
            check_similar(a, b, checker, _identity(b))
        assert len(lowerings) == len(checker.lowered) <= 4
        fresh = EquivalenceChecker(seed=1)
        equivalence.lowered(a, a.values_vector(), None, fresh)
        assert equivalence.instantiable(a, a.values_vector(), fresh)
        assert len(walks) == 1

    def test_warm_load_computes_no_key(self, tmp_path):
        artifact = _build(("hvx",), jobs=1)
        persist_artifact(tmp_path, artifact)
        loaded = load_artifact(tmp_path, artifact.fingerprint)
        assert dictionary_from_classes(loaded.isas, loaded.classes).ops
        for cls in loaded.classes:
            for member in cls.members:
                assert "alpha_key" not in vars(member.symbolic)


class TestIdenticalTerms:
    def test_same_term_is_structural_without_simplify(self, monkeypatch):
        symbolic = parsed_symbolics("hvx")[0]
        term = equivalence.instantiate_term(symbolic, symbolic.values_vector())
        monkeypatch.setattr(
            solver, "simplify", lambda _t: pytest.fail("simplify called")
        )
        checker = EquivalenceChecker(seed=1)
        result = checker.check_equivalence(term, term)
        assert (result.equivalent, result.method) == (True, "structural")
        assert checker.stats["structural"] == 1


def _out_of_range(name: str):
    """A vendor spec reading eight 8-bit lanes out of a 32-bit input: the
    extract leaves its source from lane 4 on, and its offset ``i * 8`` has
    no trailing constant, so pass 3 wants a hole in it."""
    lane = BvExtract(BvVar("a"), IBin("*", IVar("i"), IConst(8)), IConst(8))
    func = SemanticsFunction(
        name, (Input("a", IConst(32), False),), {},
        ForConcat("i", IConst(8), lane), IConst(0),
    )
    return extract_constants(func, "fake")


class TestUninstantiableInstruction:
    def test_twins_are_not_merged(self):
        a, b = _out_of_range("broken_a"), _out_of_range("broken_b")
        assert a.alpha_key == b.alpha_key
        checker = EquivalenceChecker(seed=1)
        assert check_similar(a, b, checker) is _ladder(a, b) is False
        assert checker.stats["alpha"] == 1

    def test_engine_keeps_them_as_unrefined_singletons(self):
        engine = SimilarityEngine()
        classes = engine.run([_out_of_range("broken_a"), _out_of_range("broken_b")])
        assert [len(c.members) for c in classes] == [1, 1]
        assert engine.stats.uninstantiable == 2
        assert "uninstantiable" not in engine.stats.checker_stats

    def test_build_artifact_completes(self, monkeypatch):
        good = parsed_symbolics("hvx")[:4]
        broken = [_out_of_range("broken_a"), _out_of_range("broken_b")]
        monkeypatch.setattr(pipeline, "_parse_tasks", lambda isas, jobs: [None])
        monkeypatch.setattr(
            pipeline, "_parse_task",
            lambda task: (*pipeline._encode(broken + good), 0.0, 0.0, 0, 0),
        )
        monkeypatch.setattr(pipeline, "irgen_fingerprint", lambda **k: "f" * 64)
        artifact = build_artifact(jobs=1)
        assert artifact.stats.uninstantiable == 2
        assert artifact.stats.instructions == 6
        singles = [c.members[0].name for c in artifact.classes if len(c.members) == 1]
        assert {"broken_a", "broken_b"} <= set(singles)
