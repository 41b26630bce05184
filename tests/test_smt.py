"""Tests for the solver substrate: terms, simplifier, SAT, bit-blasting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvector import BitVector
from repro.smt.bitblast import BitBlaster, NotBitblastable
from repro.smt.eval import evaluate
from repro.smt.sat import CdclSolver, solve_cnf
from repro.smt.simplify import simplify, structurally_equal, substitute
from repro.smt.solver import EquivalenceChecker
from repro.smt.terms import apply_op, const, var


class TestTerms:
    def test_width_inference_binary(self):
        t = apply_op("bvadd", [var("x", 8), var("y", 8)])
        assert t.width == 8

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_op("bvadd", [var("x", 8), var("y", 16)])

    def test_comparison_is_one_bit(self):
        assert apply_op("bvslt", [var("x", 8), var("y", 8)]).width == 1

    def test_concat_width(self):
        assert apply_op("concat", [var("x", 8), var("y", 4)]).width == 12

    def test_extract_bounds(self):
        with pytest.raises(ValueError):
            apply_op("extract", [var("x", 8)], (8, 0))

    def test_variables_collects_all(self):
        t = apply_op("bvadd", [var("x", 8), apply_op("bvnot", [var("y", 8)])])
        assert t.variables() == {"x": 8, "y": 8}

    def test_ite_condition_must_be_bool(self):
        with pytest.raises(ValueError):
            apply_op("ite", [var("c", 8), var("a", 8), var("b", 8)])


class TestEval:
    def test_unbound_variable(self):
        with pytest.raises(KeyError):
            evaluate(var("x", 8), {})

    def test_nested(self):
        t = apply_op(
            "bvmul", [apply_op("bvadd", [var("x", 8), const(1, 8)]), const(3, 8)]
        )
        assert evaluate(t, {"x": BitVector(4, 8)}).value == 15

    def test_saturating(self):
        t = apply_op("bvsaddsat", [var("x", 8), const(100, 8)])
        assert evaluate(t, {"x": BitVector(100, 8)}).signed == 127


class TestSimplify:
    def test_constant_folding(self):
        t = apply_op("bvadd", [const(3, 8), const(4, 8)])
        assert simplify(t) == const(7, 8)

    def test_add_zero_identity(self):
        assert simplify(apply_op("bvadd", [var("x", 8), const(0, 8)])) == var("x", 8)

    def test_mul_one_identity(self):
        assert simplify(apply_op("bvmul", [const(1, 8), var("x", 8)])) == var("x", 8)

    def test_and_self(self):
        x = var("x", 8)
        assert simplify(apply_op("bvand", [x, x])) == x

    def test_xor_self_is_zero(self):
        x = var("x", 8)
        assert simplify(apply_op("bvxor", [x, x])) == const(0, 8)

    def test_commutative_canonical_order(self):
        x, y = var("x", 8), var("y", 8)
        assert structurally_equal(
            apply_op("bvadd", [x, y]), apply_op("bvadd", [y, x])
        )

    def test_extract_of_extract(self):
        x = var("x", 32)
        outer = apply_op(
            "extract", [apply_op("extract", [x], (23, 8))], (11, 4)
        )
        assert simplify(outer) == apply_op("extract", [x], (19, 12))

    def test_extract_of_concat_low_side(self):
        x, y = var("x", 8), var("y", 8)
        joined = apply_op("concat", [x, y])
        assert simplify(apply_op("extract", [joined], (7, 0))) == y
        assert simplify(apply_op("extract", [joined], (15, 8))) == x

    def test_full_extract_is_identity(self):
        x = var("x", 8)
        assert simplify(apply_op("extract", [x], (7, 0))) == x

    def test_ite_constant_condition(self):
        t = apply_op("ite", [const(1, 1), var("a", 8), var("b", 8)])
        assert simplify(t) == var("a", 8)

    def test_substitute(self):
        t = apply_op("bvadd", [var("x", 8), var("y", 8)])
        replaced = substitute(t, {"x": const(5, 8)})
        assert evaluate(replaced, {"y": BitVector(2, 8)}).value == 7

    def test_substitute_width_mismatch(self):
        with pytest.raises(ValueError):
            substitute(var("x", 8), {"x": const(0, 16)})

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_simplify_preserves_semantics(self, a, b):
        x, y = var("x", 8), var("y", 8)
        t = apply_op(
            "bvadd",
            [apply_op("bvmul", [x, const(1, 8)]), apply_op("bvxor", [y, const(0, 8)])],
        )
        env = {"x": BitVector(a, 8), "y": BitVector(b, 8)}
        assert evaluate(simplify(t), env).value == evaluate(t, env).value


class TestSat:
    def test_trivial_sat(self):
        result = solve_cnf(2, [(1, 2), (-1, 2)])
        assert result.satisfiable
        assert result.model[2] is True

    def test_trivial_unsat(self):
        result = solve_cnf(1, [(1,), (-1,)])
        assert not result.satisfiable

    def test_empty_clause_unsat(self):
        result = solve_cnf(1, [()])
        assert not result.satisfiable

    def test_pigeonhole_3_into_2_unsat(self):
        # Variables p[i][j]: pigeon i in hole j (i in 0..2, j in 0..1).
        def v(i, j):
            return i * 2 + j + 1

        clauses = []
        for i in range(3):
            clauses.append((v(i, 0), v(i, 1)))
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append((-v(i1, j), -v(i2, j)))
        assert not solve_cnf(6, clauses).satisfiable

    def test_chain_implications(self):
        # x1 -> x2 -> ... -> x20, x1 asserted, all must be true.
        clauses = [(1,)]
        for i in range(1, 20):
            clauses.append((-i, i + 1))
        result = solve_cnf(20, clauses)
        assert result.satisfiable
        assert all(result.model[i] for i in range(1, 21))


def _blast_eval(term, env):
    """Evaluate a term through the bit-blaster + SAT (unit assumptions)."""
    blaster = BitBlaster()
    bits = blaster.blast(term)
    # Pin inputs with unit clauses.
    for name, value in env.items():
        for i, lit in enumerate(blaster.var_bits.get(name, [])):
            bit = (value.value >> i) & 1
            blaster.cnf.assert_lit(lit if bit else -lit)
    result = CdclSolver(blaster.cnf.num_vars, blaster.cnf.clauses).solve()
    assert result.satisfiable
    out = 0
    for i, lit in enumerate(bits):
        assigned = result.model.get(abs(lit), False)
        if (assigned if lit > 0 else not assigned):
            out |= 1 << i
    return out


_BLASTABLE_BINOPS = [
    "bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor",
    "bvshl", "bvlshr", "bvashr",
    "bvsmin", "bvsmax", "bvumin", "bvumax",
    "bvsaddsat", "bvuaddsat", "bvssubsat", "bvusubsat",
    "bvuavg", "bvsavg", "bvuavg_round", "bvsavg_round",
]


class TestBitblast:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(_BLASTABLE_BINOPS),
        st.integers(0, 63),
        st.integers(0, 63),
    )
    def test_binop_circuits_match_evaluator(self, op, a, b):
        x, y = var("x", 6), var("y", 6)
        term = apply_op(op, [x, y])
        env = {"x": BitVector(a, 6), "y": BitVector(b, 6)}
        assert _blast_eval(term, env) == evaluate(term, env).value

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["bveq", "bvult", "bvslt", "bvsle", "bvuge"]),
           st.integers(0, 255), st.integers(0, 255))
    def test_comparison_circuits(self, op, a, b):
        x, y = var("x", 8), var("y", 8)
        term = apply_op(op, [x, y])
        env = {"x": BitVector(a, 8), "y": BitVector(b, 8)}
        assert _blast_eval(term, env) == evaluate(term, env).value

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 255))
    def test_saturate_to_unsigned_circuit(self, a):
        x = var("x", 8)
        term = apply_op("saturate_to_unsigned", [x], (4,))
        env = {"x": BitVector(a, 8)}
        assert _blast_eval(term, env) == evaluate(term, env).value

    def test_division_not_blastable(self):
        term = apply_op("bvudiv", [var("x", 4), var("y", 4)])
        with pytest.raises(NotBitblastable):
            BitBlaster().blast(term)


class TestEquivalenceChecker:
    def test_structural_path(self):
        checker = EquivalenceChecker()
        x, y = var("x", 8), var("y", 8)
        result = checker.check_equivalence(
            apply_op("bvadd", [x, y]), apply_op("bvadd", [y, x])
        )
        assert result.equivalent and result.method == "structural"

    def test_fuzz_finds_difference(self):
        checker = EquivalenceChecker()
        x, y = var("x", 8), var("y", 8)
        result = checker.check_equivalence(
            apply_op("bvadd", [x, y]), apply_op("bvsub", [x, y])
        )
        assert not result.equivalent
        assert result.counterexample is not None
        env = result.counterexample
        lhs = evaluate(apply_op("bvadd", [x, y]), env)
        rhs = evaluate(apply_op("bvsub", [x, y]), env)
        assert lhs.value != rhs.value

    def test_exhaustive_small_space(self):
        checker = EquivalenceChecker()
        x = var("x", 4)
        double = apply_op("bvadd", [x, x])
        shifted = apply_op("bvshl", [x, const(1, 4)])
        result = checker.check_equivalence(double, shifted)
        assert result.equivalent

    def test_sat_proves_mul_by_two(self):
        # Width 12 keeps the multiplier inside the SAT gate
        # (wider multipliers go to the randomized battery by design).
        checker = EquivalenceChecker()
        x, y = var("x", 12), var("y", 12)
        lhs = apply_op("bvadd", [apply_op("bvmul", [x, const(2, 12)]), y])
        rhs = apply_op("bvadd", [apply_op("bvadd", [x, x]), y])
        result = checker.check_equivalence(lhs, rhs)
        assert result.equivalent
        assert result.method in ("sat", "structural")

    def test_sat_counterexample_is_real(self):
        checker = EquivalenceChecker()
        x = var("x", 24)
        lhs = apply_op("bvshl", [x, const(2, 24)])
        rhs = apply_op("bvadd", [x, x])
        result = checker.check_equivalence(lhs, rhs)
        assert not result.equivalent
        env = result.counterexample
        assert evaluate(lhs, env).value != evaluate(rhs, env).value

    def test_saturating_formulations_equivalent(self):
        """sat_add(x, y) == saturate(sext(x) + sext(y)) — the similarity
        engine depends on cross-formulation equivalences like this."""
        checker = EquivalenceChecker()
        x, y = var("x", 8), var("y", 8)
        direct = apply_op("bvsaddsat", [x, y])
        wide = apply_op(
            "saturate_to_signed",
            [apply_op("bvadd", [apply_op("sext", [x], (16,)),
                                apply_op("sext", [y], (16,))])],
            (8,),
        )
        assert checker.check_equivalence(direct, wide).equivalent
