"""The instantiability walk and the IR identity of hole refinement.

``check_instantiable`` must accept exactly the instantiations ``to_term``
lowers, with the same width, and raise at the same sites; pass 3's
identity check must hold only where both sides lower to one interned term.
"""

import random
from functools import lru_cache

import pytest

from repro.hydride_ir.ast import (
    BvBinOp,
    BvBroadcastConst,
    BvCast,
    BvCmp,
    BvConcat,
    BvConst,
    BvExpr,
    BvExtract,
    BvIte,
    BvUnOp,
    BvVar,
    ForConcat,
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IConst, IndexExpr, IParam, IVar
from repro.hydride_ir.interp import (
    SemanticsError,
    _uniform_loop,
    check_instantiable,
    resolved_input_widths,
    to_term,
)
from repro.smt import terms as smt
from repro.irgen import build_artifact, classes_and_stats
from repro.isa.registry import supported_isas
from repro.similarity import equivalence, holes
from repro.similarity.equivalence import instantiable, lowered
from repro.similarity.holes import (
    _lowers_identically,
    insert_offset_holes,
    synthesize_offset_hole,
)
from repro.smt.solver import EquivalenceChecker
from tests.support import parsed_symbolics


@lru_cache(maxsize=None)
def _catalog():
    return tuple(s for isa in supported_isas() for s in parsed_symbolics(isa))


def _outcome(fn, func, params):
    """The width ``fn`` returns, or the type of what it raises."""
    try:
        result = fn(func, params)
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)
    return result if isinstance(result, int) else result.width


def _agree(func, params):
    """Assert walk and lowering agree; True when both accept."""
    walked = _outcome(check_instantiable, func, params)
    reference = _outcome(to_term, func, params)
    assert walked == reference, (func.name, params, walked, reference)
    return isinstance(reference, int)


def _at(symbolic, values):
    assignment = dict(zip(symbolic.param_names, values))
    return symbolic.to_function(assignment), assignment


class TestWalkAgainstLowering:
    def test_every_spec_at_its_own_values(self):
        for symbolic in _catalog():
            assert _agree(*_at(symbolic, symbolic.values_vector()))

    def test_every_spec_at_each_classmates_values(self):
        classes, _stats = classes_and_stats()
        cases = {}
        for cls in classes:
            vectors = {m.symbolic.values_vector() for m in cls.members}
            for member in cls.members:
                for values in vectors:
                    cases[(member.symbolic.alpha_key, values)] = member.symbolic
        assert len(cases) > len(classes)
        assert all(_agree(*_at(s, values)) for (_key, values), s in cases.items())

    def test_perturbed_parameters(self):
        rng = random.Random(36)
        outcomes = set()
        for symbolic in rng.sample(_catalog(), 400):
            position = rng.randrange(len(symbolic.param_names))
            value = symbolic.values_vector()[position]
            for changed in (value * 2, value // 2, value + 8, value - 8, 0, -1):
                values = list(symbolic.values_vector())
                values[position] = changed
                outcomes.add(_agree(*_at(symbolic, tuple(values))))
        assert outcomes == {True, False}


def _func(body: BvExpr):
    """A hand-built function over two 8-bit inputs ``a`` and ``b``."""
    return SemanticsFunction(
        "hand", (Input("a", IConst(8)), Input("b", IConst(8))), {}, body
    )


A, B = BvVar("a"), BvVar("b")
WIDE = BvCast("zext", B, IConst(16))
ONE_BIT = BvCmp("bveq", A, B)

# One function per site at which ``to_term`` raises, with what it raises.
RAISE_SITES = {
    "extract out of range": (BvExtract(A, IConst(4), IConst(8)), SemanticsError),
    "extract below zero": (BvExtract(A, IConst(-1), IConst(2)), SemanticsError),
    "extract of width 0": (BvExtract(A, IConst(3), IConst(0)), ValueError),
    "loop count 0": (ForConcat("i", IConst(0), A), SemanticsError),
    "negative loop count": (ForConcat("i", IConst(-2), A), SemanticsError),
    "negative constant width": (BvConst(IConst(1), IConst(-1)), ValueError),
    "binop width mismatch": (BvBinOp("bvadd", A, WIDE), ValueError),
    "comparison width mismatch": (BvCmp("bvult", WIDE, A), ValueError),
    "ite branch width mismatch": (BvIte(ONE_BIT, A, WIDE), ValueError),
    "ite condition not 1 bit": (BvIte(A, A, B), ValueError),
    "unknown binary op": (BvBinOp("bvfrob", A, B), ValueError),
    "unknown unary op": (BvUnOp("bvfrob", A), ValueError),
    "unknown cast": (BvCast("widen", A, IConst(16)), ValueError),
    "unknown input": (BvVar("c"), KeyError),
    "unbound iterator": (BvExtract(A, IVar("j"), IConst(1)), KeyError),
    "unbound parameter": (BvConst(IConst(1), IParam("w")), KeyError),
    "empty concat": (BvConcat(()), IndexError),
    "out of range in a late iteration": (
        ForConcat("i", IConst(3), BvExtract(A, IVar("i") * 4, IConst(4))),
        SemanticsError,
    ),
}


class TestRaiseSites:
    @pytest.mark.parametrize("site", list(RAISE_SITES))
    def test_walk_raises_where_lowering_does(self, site):
        body, error = RAISE_SITES[site]
        func = _func(body)
        with pytest.raises(error):
            to_term(func)
        with pytest.raises(error):
            check_instantiable(func)

    def test_unbound_input_width_parameter(self):
        func = SemanticsFunction("hand", (Input("a", IParam("w")),), {}, A)
        assert _outcome(to_term, func, {}) is KeyError
        assert _outcome(check_instantiable, func, {}) is KeyError

    def test_valid_hand_built_bodies_agree_on_width(self):
        lanes = ForConcat(
            "i", IConst(2),
            BvBinOp("bvadd", BvExtract(A, IVar("i") * 4, IConst(4)), BvConst(IConst(1), IConst(4))),
        )
        for body in (lanes, WIDE, ONE_BIT, BvIte(ONE_BIT, A, B), BvConcat((A, WIDE))):
            assert _agree(_func(body), {})


def _unrolled_walk(func, params=None):
    """``check_instantiable`` walking every ``ForConcat`` iteration: the
    reference its first-and-last-iteration path is held to."""
    param_env = dict(params if params is not None else func.params)
    widths = resolved_input_widths(func, param_env)

    def const_width(value: IndexExpr, width: IndexExpr, env) -> int:
        value.evaluate(env)
        bits = width.evaluate(env)
        if bits < 0:
            raise ValueError(f"negative constant width {bits} in {func.name}")
        return bits

    def run(expr: BvExpr, env) -> int:
        if isinstance(expr, BvVar):
            return widths[expr.name]
        if isinstance(expr, BvConst):
            return const_width(expr.value, expr.width, env)
        if isinstance(expr, BvBroadcastConst):
            elem = const_width(expr.value, expr.elem_width, env)
            return elem * max(1, expr.num_elems.evaluate(env))
        if isinstance(expr, BvExtract):
            src = run(expr.src, env)
            low = expr.low.evaluate(env)
            width = expr.width.evaluate(env)
            if low < 0 or low + width > src:
                raise SemanticsError("extract out of range")
            return smt.result_width("extract", [src], (low + width - 1, low))
        if isinstance(expr, (BvBinOp, BvCmp, BvUnOp)):
            return smt.result_width(expr.op, [run(c, env) for c in expr.children()])
        if isinstance(expr, BvCast):
            return smt.result_width(
                expr.op, [run(expr.operand, env)], (expr.new_width.evaluate(env),)
            )
        if isinstance(expr, BvIte):
            return smt.result_width("ite", [run(c, env) for c in expr.children()])
        if isinstance(expr, ForConcat):
            count = expr.count.evaluate(env)
            if count <= 0:
                raise SemanticsError(f"loop count {count}")
            body_env = dict(env)
            total = 0
            for i in range(count):
                body_env[expr.var] = i
                total += run(expr.body, body_env)
            return total
        if isinstance(expr, BvConcat):
            parts = [run(p, env) for p in expr.parts]
            return parts[0] + sum(parts[1:])
        raise SemanticsError(type(expr).__name__)

    return run(func.body, param_env)


class TestUniformLoops:
    """Loops whose iterations share one width are walked at their first
    and last iterations only; the unrolled walk is the reference."""

    def test_agrees_with_the_unrolled_walk_at_every_build_vector(self, monkeypatch):
        asked = []
        real = equivalence.check_instantiable

        def recording(func, params):
            asked.append((func, params))
            return real(func, params)

        monkeypatch.setattr(equivalence, "check_instantiable", recording)
        # A build of its own, inline: the memoised partition may not run.
        build_artifact(jobs=1)
        monkeypatch.setattr(equivalence, "check_instantiable", real)
        uniform = 0
        for func, params in asked:
            walked = _outcome(check_instantiable, func, params)
            assert walked == _outcome(_unrolled_walk, func, params), (
                func.name, params,
            )
            uniform += any(
                isinstance(node, ForConcat) and _uniform_loop(node)
                for node in func.body.walk()
            )
        assert len(asked) > 1_000 and uniform > len(asked) // 2

    def test_agrees_with_the_unrolled_walk_at_perturbed_parameters(self):
        """Where a perturbed parameter breaks the instantiation, both walks
        raise the same exception type."""
        rng = random.Random(45)
        invalid = 0
        for symbolic in rng.sample(_catalog(), 400):
            position = rng.randrange(len(symbolic.param_names))
            value = symbolic.values_vector()[position]
            for changed in (value * 2, value // 2, value + 8, value - 8, 0, -1):
                values = list(symbolic.values_vector())
                values[position] = changed
                func, params = _at(symbolic, tuple(values))
                walked = _outcome(check_instantiable, func, params)
                assert walked == _outcome(_unrolled_walk, func, params)
                invalid += not isinstance(walked, int)
        assert invalid > 100

    def test_which_loops_are_uniform(self):
        i = IVar("i")
        lanes = BvExtract(A, i * 4, IConst(4))
        assert _uniform_loop(ForConcat("i", IConst(2), lanes))
        assert _uniform_loop(ForConcat("i", IConst(2), BvConst(i * 3 - 1, IConst(4))))
        for body in (
            BvExtract(A, i * i, IConst(1)),  # offset not affine
            BvExtract(A, i // 2, IConst(1)),  # offset not affine
            BvExtract(A, IConst(0), i + 1),  # width mentions the iterator
            BvCast("zext", lanes, i + 8),  # cast width mentions it
            ForConcat("j", i + 1, lanes),  # inner count mentions it
            ForConcat("i", IConst(2), lanes),  # inner loop rebinds it
        ):
            assert not _uniform_loop(ForConcat("i", IConst(4), body)), body

    def test_a_failure_between_the_ends_of_a_non_affine_loop_is_found(self):
        """Offsets 0, 2, 2, 0 put the middle iterations out of range; the
        offset is not affine, so the loop is unrolled and the walk raises."""
        i = IVar("i")
        body = BvExtract(A, i * (IConst(3) - i), IConst(7))
        func = _func(ForConcat("i", IConst(4), body))
        assert not _uniform_loop(func.body)
        with pytest.raises(SemanticsError):
            check_instantiable(func)
        with pytest.raises(SemanticsError):
            to_term(func)


def _wanting_a_hole():
    for symbolic in _catalog():
        refined = insert_offset_holes(symbolic, 0)
        if refined is not None:
            yield symbolic, refined


class TestHoleIdentity:
    def test_every_hole_refinement_is_an_ir_identity(self):
        checker = EquivalenceChecker(seed=1)
        count = 0
        for symbolic, refined in _wanting_a_hole():
            count += 1
            assert _lowers_identically(symbolic, refined), symbolic.name
            assert lowered(
                symbolic, symbolic.values_vector(), None, checker
            ) is lowered(refined, refined.values_vector(), None, checker)
        assert count == 1496

    def test_a_wrong_hole_leaves_the_identity_and_the_ladder_refutes_it(
        self, monkeypatch
    ):
        calls = []
        real = equivalence.instantiate_term
        monkeypatch.setattr(
            equivalence, "instantiate_term",
            lambda *args: calls.append(args) or real(*args),
        )
        refuted = 0
        for symbolic, _refined in _wanting_a_hole():
            wrong = insert_offset_holes(symbolic, 8)
            checker = EquivalenceChecker(seed=1)
            if not instantiable(wrong, wrong.values_vector(), checker):
                continue
            assert not _lowers_identically(symbolic, wrong), symbolic.name
            before = len(calls)
            assert synthesize_offset_hole(symbolic, checker, (8,)) is None
            assert len(calls) == before + 2
            refuted += 1
            if refuted == 8:
                break
        assert refuted == 8

    def test_identity_never_lowers(self, monkeypatch):
        monkeypatch.setattr(
            holes, "lowered", lambda *args: pytest.fail("lowered on the identity")
        )
        symbolic, refined = next(_wanting_a_hole())
        checker = EquivalenceChecker(seed=1)
        assert synthesize_offset_hole(symbolic, checker) == refined
        assert checker.stats["structural"] == 1
        assert checker.lowered == {}
