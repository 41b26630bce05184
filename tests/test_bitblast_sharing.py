"""Structural gate hashing in the bit-blaster, and what it must not break.

:class:`repro.smt.cnf.CnfBuilder` hashes its AND / XOR / MUX gates, so a
repeated gate — however its operands are ordered or signed — returns the
literal that already exists.  These tests pin the key normalisation, check
that hashing never changes what a circuit computes (random shared,
commuted terms over every ``BitBlaster._op_*``), keep the near-miss
identity that motivated it proved on the library path, and pin what
priming the solver with the spec does to CEGIS's search.
"""

import json
import random

import pytest

from repro.bitvector import BitVector
from repro.halide import ir as hir
from repro.smt.bitblast import BitBlaster, NotBitblastable
from repro.smt.cnf import CnfBuilder
from repro.smt.eval import evaluate
from repro.smt.sat import CdclSolver
from repro.smt.simplify import _COMMUTATIVE as COMMUTATIVE
from repro.smt.solver import EquivalenceChecker, IncrementalSatContext
from repro.smt.terms import (
    BINARY_SAME_WIDTH,
    COMPARISONS,
    UNARY_SAME_WIDTH,
    WIDTH_CHANGING,
    apply_op,
    const,
    var,
)

BLASTED_OPS = sorted(
    name[len("_op_"):] for name in dir(BitBlaster) if name.startswith("_op_")
)


class TestGateKeys:
    def test_xor_keys_on_unsigned_operands(self):
        cnf = CnfBuilder()
        a, b = cnf.new_vars(2)
        out = cnf.gate_xor(a, b)
        clauses = len(cnf.clauses)
        assert cnf.gate_xor(b, a) == out
        assert -cnf.gate_xor(-a, b) == out
        assert -cnf.gate_xor(b, -a) == out
        assert cnf.gate_xor(-a, -b) == out
        assert len(cnf.clauses) == clauses

    def test_and_keys_on_sorted_operands(self):
        cnf = CnfBuilder()
        a, b = cnf.new_vars(2)
        out = cnf.gate_and(a, -b)
        clauses = len(cnf.clauses)
        assert cnf.gate_and(-b, a) == out
        # OR is a negated AND: it shares the AND's variable.
        assert cnf.gate_or(-a, b) == -out
        assert len(cnf.clauses) == clauses
        assert cnf.gate_and(a, b) != out

    def test_mux_keys_on_positive_selector(self):
        cnf = CnfBuilder()
        sel, t, f = cnf.new_vars(3)
        out = cnf.gate_mux(sel, t, f)
        clauses = len(cnf.clauses)
        assert cnf.gate_mux(-sel, f, t) == out
        assert len(cnf.clauses) == clauses
        assert cnf.gate_mux(sel, f, t) != out

    def test_full_adder_shares_its_gates(self):
        cnf = CnfBuilder()
        a, b, carry = cnf.new_vars(3)
        first = cnf.gate_full_adder(a, b, carry)
        clauses = len(cnf.clauses)
        assert cnf.gate_full_adder(b, a, carry) == first
        assert len(cnf.clauses) == clauses

    def test_candidate_gates_reuse_the_spec_adder(self):
        """The near-miss shape: ``a ^ b`` is the adder's partial-sum row
        and ``a & b`` its generate row — blasting them after ``a + b``
        adds nothing, and a miter of a gate against itself is false."""
        blaster = BitBlaster()
        x, y = var("x", 8), var("y", 8)
        blaster.blast(apply_op("bvadd", [x, y]))
        clauses = len(blaster.cnf.clauses)
        xor_bits = blaster.blast(apply_op("bvxor", [y, x]))
        blaster.blast(apply_op("bvand", [x, y]))
        assert len(blaster.cnf.clauses) == clauses
        cnf = blaster.cnf
        assert all(cnf.gate_xor(bit, bit) == cnf.false_lit for bit in xor_bits)


class _TermGenerator:
    """Random term DAGs over every blasted operator, widths 1–16.

    Operands are drawn from a pool of everything built so far (so
    subterms are shared), and commutative applications are also built
    with their arguments swapped."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.pool: dict[int, list] = {}
        self.variables: dict[str, int] = {}
        for index in range(6):
            width = rng.randint(1, 16)
            self._add(var(f"v{index}", width))
            self.variables[f"v{index}"] = width

    def _add(self, term) -> None:
        self.pool.setdefault(term.width, []).append(term)

    def operand(self, width: int):
        same = self.pool.get(width)
        if same and self.rng.random() < 0.8:
            return self.rng.choice(same)
        source = self.rng.choice([t for ts in self.pool.values() for t in ts])
        if source.width > width:
            low = self.rng.randint(0, source.width - width)
            return apply_op("extract", [source], (low + width - 1, low))
        if source.width < width:
            op = self.rng.choice(["zext", "sext"])
            return apply_op(op, [source], (width,))
        return source

    def build(self, op: str) -> list:
        rng = self.rng
        if op in ("bvrotl", "bvrotr"):
            width = rng.choice([1, 2, 4, 8, 16])
        else:
            width = rng.randint(1, 16)
        if op == "bvsshlsat":
            args = [self.operand(width), const(rng.randint(0, width + 1), width)]
        elif op in BINARY_SAME_WIDTH or op in COMPARISONS:
            args = [self.operand(width), self.operand(width)]
        elif op in UNARY_SAME_WIDTH:
            args = [self.operand(width)]
        elif op in ("zext", "sext"):
            inner = rng.randint(1, width)
            return [apply_op(op, [self.operand(inner)], (width,))]
        elif op in WIDTH_CHANGING:  # trunc and the saturating narrows
            target = rng.randint(1, width)
            return [apply_op(op, [self.operand(width)], (target,))]
        elif op == "extract":
            low = rng.randint(0, width - 1)
            high = rng.randint(low, width - 1)
            return [apply_op(op, [self.operand(width)], (high, low))]
        elif op == "concat":
            args = [self.operand(rng.randint(1, 8)), self.operand(rng.randint(1, 8))]
        elif op == "ite":
            args = [self.operand(1), self.operand(width), self.operand(width)]
        else:
            raise AssertionError(f"no generator for {op}")
        terms = [apply_op(op, args)]
        if op in COMMUTATIVE:
            terms.append(apply_op(op, args[::-1]))
        return terms

    def grow(self, ops: list[str]) -> list:
        built = []
        for op in ops:
            for term in self.build(op):
                self._add(term)
                built.append(term)
        return built


class TestBlasterSoundUnderSharing:
    def test_generator_covers_every_blasted_op(self):
        assert "bvrotl" in BLASTED_OPS and "ite" in BLASTED_OPS
        gen = _TermGenerator(random.Random(0))
        built = gen.grow(BLASTED_OPS)
        assert {t.op for t in built} == set(BLASTED_OPS)

    @pytest.mark.parametrize("seed", range(8))
    def test_model_outputs_match_the_evaluator(self, seed):
        rng = random.Random(seed)
        gen = _TermGenerator(rng)
        ops = BLASTED_OPS * 2
        rng.shuffle(ops)
        terms = gen.grow(ops)

        blaster = BitBlaster()
        outputs = [blaster.blast(term) for term in terms]
        env = {
            name: BitVector(rng.getrandbits(width), width)
            for name, width in gen.variables.items()
        }
        for name, bits in blaster.var_bits.items():
            value = env[name].value
            for i, lit in enumerate(bits):
                blaster.cnf.assert_lit(lit if (value >> i) & 1 else -lit)
        result = CdclSolver(blaster.cnf.num_vars, blaster.cnf.clauses).solve()
        assert result.satisfiable

        for term, bits in zip(terms, outputs):
            got = sum(
                1 << i
                for i, lit in enumerate(bits)
                if result.model[abs(lit)] == (lit > 0)
            )
            assert got == evaluate(term, env).value, term


class TestRotateRefusal:
    @pytest.mark.parametrize("op", ["bvrotl", "bvrotr"])
    def test_non_power_of_two_rotate_leaves_no_gates(self, op):
        blaster = BitBlaster()
        x, y = var("x", 6), var("y", 6)
        blaster.blast(apply_op("bvadd", [x, y]))
        clauses, num_vars = len(blaster.cnf.clauses), blaster.cnf.num_vars
        with pytest.raises(NotBitblastable):
            blaster.blast(apply_op(op, [apply_op("bvxor", [x, y]), y]))
        assert len(blaster.cnf.clauses) == clauses
        assert blaster.cnf.num_vars == num_vars


def _carry_identity(lanes: int, width: int, shift: int):
    """``(a ^ b) + ((a & b) << shift)`` and ``a + b``, lowered like a window."""
    a, b = hir.HLoad("a", lanes, width), hir.HLoad("b", lanes, width)
    carry = hir.HBin("shl", hir.HBin("and", a, b), hir.HConst(shift, lanes, width))
    trick = hir.to_term(hir.HBin("add", hir.HBin("xor", a, b), carry))
    return trick, hir.to_term(hir.HBin("add", a, b))


class TestNearMissCarryIdentity:
    """The 32-bit bit-trick spelling of ``a + b`` from the near-miss
    stream.  Its window is 4 x i32; CEGIS verifies the lane-scaled spec
    (2 x i32), whose proof used to exhaust the 4,000-conflict verification
    budget and fall back to a fuzz battery.  With spec and candidate
    sharing their partial-sum and generate gates it is a SAT-rung proof."""

    def test_proved_by_the_sat_rung_within_budget(self):
        spec, candidate = _carry_identity(2, 32, 1)
        checker = EquivalenceChecker(max_conflicts=4_000)
        checker.prime(spec)
        verdict = checker.check_equivalence(candidate, spec)
        assert verdict.equivalent
        assert verdict.method == "sat"

        mutant, _ = _carry_identity(2, 32, 2)
        refuted = checker.check_equivalence(mutant, spec)
        assert not refuted.equivalent
        env = refuted.counterexample
        assert evaluate(mutant, env).value != evaluate(spec, env).value

    def test_shared_context_refutes_the_mutant_with_a_model(self):
        spec, candidate = _carry_identity(2, 32, 1)
        mutant, _ = _carry_identity(2, 32, 2)
        context = IncrementalSatContext()
        context.prime(spec)
        assert not context.check_not_equal(candidate, spec, 4_000).satisfiable
        result = context.check_not_equal(mutant, spec, 4_000)
        assert result.satisfiable
        env = EquivalenceChecker._model_to_env(
            result.model, context.blaster, spec.variables()
        )
        assert evaluate(mutant, env).value != evaluate(spec, env).value

    def test_unprimed_checker_takes_a_name_at_a_new_width(self):
        """An unprimed checker serves unrelated pairs (the similarity
        engine, the rule verifier), which may reuse a variable name at
        another width; each of its SAT queries must still be answered."""
        checker = EquivalenceChecker(max_conflicts=4_000)
        for width in (16, 32):
            spec, candidate = _carry_identity(1, width, 1)
            verdict = checker.check_equivalence(candidate, spec)
            assert verdict.equivalent
            assert verdict.method == "sat"


class TestSpecFirstPriming:
    """CEGIS blasts the spec into each fresh solver context before any
    candidate, so the spec's variables take the lowest indices.  The
    branching heap breaks activity ties by lowest index, so that layout
    decides the search: the conflict count below is a property of it."""

    def test_prime_must_precede_queries(self):
        x = var("x", 4)
        ctx = IncrementalSatContext()
        ctx.check_not_equal(x, apply_op("bvnot", [x]))
        with pytest.raises(RuntimeError):
            ctx.prime(x)

    @pytest.fixture(scope="class")
    def carry_run(self):
        """The 4 x i32 near-miss window, synthesized with the
        ``near_miss_windows`` options and no cache, recording the pair
        its SAT rung receives and the counter deltas."""
        from repro.autollvm import build_dictionary
        from repro.perf import global_counters
        from repro.synthesis import CegisOptions, build_grammar, synthesize

        a, b = hir.HLoad("a", 4, 32), hir.HLoad("b", 4, 32)
        carry = hir.HBin("shl", hir.HBin("and", a, b), hir.HConst(1, 4, 32))
        window = hir.HBin("add", hir.HBin("xor", a, b), carry)
        grammar = build_grammar(window, "x86", build_dictionary())
        pairs = []
        real = EquivalenceChecker._sat_check

        def recording(checker, left, right, *rest):
            pairs.append((left, right))
            return real(checker, left, right, *rest)

        names = ("sat_conflicts", "lane_class_queries", "lane_fallbacks",
                 "full_width_proved", "full_width_sampled")
        perf = global_counters()
        before = {name: getattr(perf, name) for name in names}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EquivalenceChecker, "_sat_check", recording)
            result = synthesize(window, grammar, CegisOptions(timeout_seconds=25.0))
        delta = {name: getattr(perf, name) - before[name] for name in names}
        return result, pairs, delta

    def test_cegis_carry_identity_search_is_pinned(self, carry_run):
        """The scaled 2 x i32 query splits into one lane class, proved
        on a context primed with the abstract spec lane; the full-width
        check reuses that proof.  Dropping the prime call changes the
        conflict count."""
        from repro.synthesis.rules import program_signature

        result, pairs, delta = carry_run
        assert result.stats.verified == "sat"
        assert json.loads(program_signature(result.program)) == {
            "kind": "op", "spec": "_mm_add_epi32", "out_bits": 128,
            "imm_values": [], "scaled_values": None,
            "args": [
                {"kind": "input", "name": name, "lanes": 4, "elem_width": 32}
                for name in ("a", "b")
            ],
        }
        assert len(pairs) == 1
        assert delta == {
            "sat_conflicts": 1_317, "lane_class_queries": 1,
            "lane_fallbacks": 0, "full_width_proved": 1,
            "full_width_sampled": 0,
        }

    def test_whole_vector_carry_identity_query_is_pinned(self, carry_run):
        """The same query as one whole-vector check — what a lane
        fallback runs — on a context primed with the whole spec term.
        Recorded before the cross-window clause store was deleted."""
        _result, pairs, _delta = carry_run
        candidate, spec = pairs[0]
        context = IncrementalSatContext()
        context.prime(spec)
        result = context.check_not_equal(candidate, spec, 4_000)
        assert not result.satisfiable
        assert result.conflicts == 2_560
