"""Lane-symmetric proofs (``repro.smt.solver``).

A checker primed with a lane width splits a pair into output lanes,
abstracts each lane's input reads into fresh variables and proves one
lane per symmetry class: by bit-parallel simulation when the class has at
most 16 input bits (the 8-bit cases of :class:`TestProofs`), by one CDCL
query otherwise (the 16-bit copies in :class:`TestCdclProofs`).  Anything
short of a proof must run the whole-vector query unchanged, so every
refutation below is compared with the one a checker without a lane width
returns.
"""

import random

import pytest

from repro.bitvector import BitVector
from repro.perf import global_counters
from repro.smt import solver
from repro.smt.eval import evaluate
from repro.smt.sat import SolverBudgetExceeded
from repro.smt.simplify import simplify, substitute
from repro.smt.solver import (
    EquivalenceChecker,
    IncrementalSatContext,
    SolverTimeout,
    lane_classes,
    split_lanes,
)
from repro.smt.terms import apply_op, const, var

LANES, WIDTH = 4, 8
A, B = var("a", LANES * WIDTH), var("b", LANES * WIDTH)


def _op(op, *args, params=()):
    return apply_op(op, list(args), params)


def _read(vector, lane, width=WIDTH):
    return _op("extract", vector, params=((lane + 1) * width - 1, lane * width))


def _vector(lanes):
    result = lanes[0]
    for lane in lanes[1:]:
        result = _op("concat", lane, result)
    return result


def _carry_add(x, y):
    """``x + y`` spelled as xor plus shifted carry."""
    carry = _op("bvshl", _op("bvand", x, y), const(1, x.width))
    return _op("bvadd", _op("bvxor", x, y), carry)


def _hidden_bump(x, y):
    """``x + y``, off by one only when ``x == 0x5a`` and ``y == 0xa5``:
    random inputs essentially never hit it, so a complete rung has to
    find it."""
    width = x.width
    hit = _op(
        "bvand",
        _op("bveq", x, const(0x5A, width)),
        _op("bveq", y, const(0xA5, width)),
    )
    total = _op("bvadd", x, y)
    return _op("ite", hit, _op("bvadd", total, const(1, width)), total)


def _op_add(x, y):
    return _op("bvadd", x, y)


def _candidate(lane_term):
    return _vector([lane_term(i) for i in range(LANES)])


SWAP = (1, 0, 2, 3)


def _family(width):
    """The spec, its correct candidate and the five soundness mutants
    over ``LANES`` lanes of ``width`` bits."""
    a, b = var("a", LANES * width), var("b", LANES * width)
    candidate = _candidate

    def corrupt(target):
        def lane(i):
            add = _hidden_bump if i == target else _op_add
            return add(_read(a, i, width), _read(b, i, width))

        return candidate(lane)

    spec = candidate(lambda i: _carry_add(_read(a, i, width), _read(b, i, width)))
    correct = candidate(lambda i: _op_add(_read(a, i, width), _read(b, i, width)))
    mutants = {
        "first lane": corrupt(0),
        "middle lane": corrupt(LANES // 2),
        "last lane": corrupt(LANES - 1),
        "lanes 0 and 1 swapped": candidate(
            lambda i: _op_add(_read(a, SWAP[i], width), _read(b, SWAP[i], width))
        ),
        "neighbour slice": candidate(
            lambda i: _op_add(
                _read(a, i - 1 if i == 2 else i, width), _read(b, i, width)
            )
        ),
    }
    return spec, correct, mutants


SPEC, CORRECT, MUTANTS = _family(WIDTH)
# Mutants whose 8-bit lane classes all have at most 16 input bits: the
# simulation refutes them.  The other two read a neighbour's slice, so
# their wrong class has 24 or 32 input bits and goes to CDCL.
SIMULATED_MUTANTS = {"first lane", "middle lane", "last lane"}


def _checker(lane_width, spec=SPEC):
    checker = EquivalenceChecker(
        seed=7,
        max_conflicts=4_000,
        sat_node_limit=1_500,
        probabilistic_samples=96,
    )
    checker.prime(spec, lane_width)
    return checker


@pytest.fixture
def no_fuzz(monkeypatch):
    """Skip the random-refutation rung so every query reaches SAT."""
    monkeypatch.setattr(solver, "QUICK_FUZZ_SAMPLES", 0)


def _delta(before, name):
    return getattr(global_counters(), name) - before[name]


def _counts():
    perf = global_counters()
    return {
        name: getattr(perf, name)
        for name in (
            "lane_class_simulations", "lane_class_queries", "lane_fallbacks"
        )
    }


class TestSplit:
    def _covers(self, term, lane_width):
        lanes = split_lanes(simplify(term), lane_width)
        assert lanes is not None
        assert all(lane.width == lane_width for lane in lanes)
        assert sum(lane.width for lane in lanes) == term.width
        rng = random.Random(3)
        rebuilt = _vector(lanes)
        for _ in range(32):
            env = {
                name: BitVector(rng.getrandbits(width), width)
                for name, width in term.variables().items()
            }
            assert evaluate(rebuilt, env).value == evaluate(term, env).value

    def test_every_output_bit_exactly_once(self):
        self._covers(SPEC, WIDTH)
        self._covers(CORRECT, WIDTH)
        for mutant in MUTANTS.values():
            self._covers(mutant, WIDTH)

    def test_parts_that_straddle_or_span_lanes(self):
        x12, y4 = var("x", 12), var("y", 4)
        wide = _op("bvadd", A, B)  # one part spanning every lane
        term = _op("concat", wide, _op("concat", _op("bvnot", x12), y4))
        self._covers(term, WIDTH)
        self._covers(A, WIDTH)
        self._covers(_op("concat", var("z", 16), x12), 4)

    def test_width_not_a_whole_number_of_lanes(self):
        assert split_lanes(var("x", 12), WIDTH) is None


class TestClasses:
    def test_symmetric_pair_is_one_class(self):
        classes, lanes = lane_classes(simplify(CORRECT), simplify(SPEC), WIDTH)
        assert lanes == LANES
        assert len(classes) == 1

    def test_per_lane_constants_give_one_class_per_lane(self):
        spec = _vector(
            [_carry_add(_read(A, i), const(3 + i, WIDTH)) for i in range(LANES)]
        )
        candidate = _vector(
            [_op_add(_read(A, i), const(3 + i, WIDTH)) for i in range(LANES)]
        )
        classes, lanes = lane_classes(simplify(candidate), simplify(spec), WIDTH)
        assert len(classes) == lanes == LANES

    def test_abstraction_maps_back_onto_each_lane(self):
        spec_lanes = split_lanes(simplify(SPEC), WIDTH)
        candidate_lanes = split_lanes(simplify(CORRECT), WIDTH)
        for spec_lane, candidate_lane in zip(spec_lanes, candidate_lanes):
            (abstract_spec, abstract_candidate), bindings = (
                solver._abstract_lane_pair(spec_lane, candidate_lane)
            )
            assert not set(abstract_spec.variables()) & {"a", "b"}
            assert substitute(abstract_spec, bindings) == spec_lane
            assert substitute(abstract_candidate, bindings) == candidate_lane


class TestProofs:
    def test_symmetric_pair_is_proved_one_lane_at_a_time(self, no_fuzz):
        checker = _checker(WIDTH)
        before = _counts()
        verdict = checker.check_equivalence(CORRECT, SPEC)
        # One 16-input-bit class: simulated, no CDCL query.
        assert verdict.equivalent and verdict.method == "exhaustive"
        assert _delta(before, "lane_class_simulations") == 1
        assert _delta(before, "lane_class_queries") == 0
        assert _delta(before, "lane_fallbacks") == 0
        assert len(checker.proven) == 1
        # The whole-vector context was never built.
        assert checker._context is None

    def test_proof_carries_over_to_a_wider_pair(self, no_fuzz):
        checker = _checker(WIDTH)
        assert checker.check_equivalence(CORRECT, SPEC).equivalent
        wide_a, wide_b = var("a", 16 * WIDTH), var("b", 16 * WIDTH)
        wide_spec = _vector(
            [_carry_add(_read(wide_a, i), _read(wide_b, i)) for i in range(16)]
        )
        wide_candidate = _vector(
            [_op_add(_read(wide_a, i), _read(wide_b, i)) for i in range(16)]
        )
        assert checker.proves(wide_candidate, wide_spec)
        # A lane class never proved is not vouched for.
        wrong = _vector(
            [_op("bvsub", _read(wide_a, i), _read(wide_b, i)) for i in range(16)]
        )
        assert not checker.proves(wrong, wide_spec)
        assert not _checker(WIDTH).proves(wide_candidate, wide_spec)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_refuted_with_the_whole_vector_counterexample(self, name, no_fuzz):
        mutant = MUTANTS[name]
        before = _counts()
        lane_verdict = _checker(WIDTH).check_equivalence(mutant, SPEC)
        assert _delta(before, "lane_fallbacks") == 1
        if name in SIMULATED_MUTANTS:
            # The simulation refuted a class; no CDCL lane query re-finds it.
            assert _delta(before, "lane_class_simulations") >= 1
            assert _delta(before, "lane_class_queries") == 0
        else:
            # The untouched lanes' class is simulated; the wrong one is
            # too wide and takes one CDCL query.
            assert _delta(before, "lane_class_simulations") == 1
            assert _delta(before, "lane_class_queries") == 1
        whole_verdict = _checker(None).check_equivalence(mutant, SPEC)
        assert not lane_verdict.equivalent
        assert lane_verdict.method == whole_verdict.method == "sat"
        assert lane_verdict.counterexample == whole_verdict.counterexample
        env = lane_verdict.counterexample
        assert evaluate(mutant, env).value != evaluate(SPEC, env).value

    def test_asymmetric_lanes_take_the_whole_vector_query(self, no_fuzz):
        spec = _vector(
            [_carry_add(_read(A, i), const(3 + i, WIDTH)) for i in range(LANES)]
        )
        candidate = _vector(
            [_op_add(_read(A, i), const(3 + i, WIDTH)) for i in range(LANES)]
        )
        before = _counts()
        checker = _checker(WIDTH, spec)
        verdict = checker.check_equivalence(candidate, spec)
        assert verdict.equivalent and verdict.method == "sat"
        assert _delta(before, "lane_class_queries") == 0
        assert _delta(before, "lane_class_simulations") == 0
        assert _delta(before, "lane_fallbacks") == 0
        assert checker._context is not None and checker._context.queries == 1
        assert not checker.proven

    def test_broken_abstraction_is_caught_and_falls_back(self, monkeypatch, no_fuzz):
        """Leave every read of ``a`` as lane 0's read: each lane of a
        candidate that adds ``a``'s lane 0 everywhere then abstracts to
        the same pair as the spec, a trivially 'proved' class.  The
        substitution check must refuse it."""
        real = solver._abstract_lane_pair
        lane0 = _read(A, 0)

        def leave_a_unrenamed(spec_lane, candidate_lane):
            (spec_abs, candidate_abs), bindings = real(spec_lane, candidate_lane)
            keep = {n: r for n, r in bindings.items() if "a" not in r.variables()}
            back = {n: lane0 for n in bindings if n not in keep}
            return (substitute(spec_abs, back), substitute(candidate_abs, back)), keep

        candidate = _candidate(lambda i: _op_add(lane0, _read(B, i)))
        whole_verdict = _checker(None).check_equivalence(candidate, SPEC)
        monkeypatch.setattr(solver, "_abstract_lane_pair", leave_a_unrenamed)
        assert lane_classes(simplify(candidate), simplify(SPEC), WIDTH) is None
        before = _counts()
        checker = _checker(WIDTH)
        verdict = checker.check_equivalence(candidate, SPEC)
        assert not verdict.equivalent
        assert verdict.counterexample == whole_verdict.counterexample
        assert _delta(before, "lane_class_queries") == 0
        assert _delta(before, "lane_class_simulations") == 0
        assert not checker.proven

    def test_unprimed_checker_never_decomposes(self, no_fuzz):
        before = _counts()
        checker = EquivalenceChecker(seed=7, max_conflicts=4_000)
        assert checker.check_equivalence(CORRECT, SPEC).equivalent
        assert _delta(before, "lane_class_queries") == 0
        assert _delta(before, "lane_class_simulations") == 0
        assert not checker.proven


WIDE_SPEC, WIDE_CORRECT, WIDE_MUTANTS = _family(16)


class TestCdclProofs:
    """The CDCL cases of :class:`TestProofs` at 16-bit lanes, whose
    classes have 32 input bits: past the simulation, so each class is
    one CDCL lane query."""

    def test_symmetric_pair_is_proved_one_lane_at_a_time(self, no_fuzz):
        checker = _checker(16, WIDE_SPEC)
        before = _counts()
        verdict = checker.check_equivalence(WIDE_CORRECT, WIDE_SPEC)
        assert verdict.equivalent and verdict.method == "sat"
        assert _delta(before, "lane_class_queries") == 1
        assert _delta(before, "lane_class_simulations") == 0
        assert _delta(before, "lane_fallbacks") == 0
        assert len(checker.proven) == 1
        assert checker._context is None

    @pytest.mark.parametrize("name", sorted(WIDE_MUTANTS))
    def test_mutant_refuted_with_the_whole_vector_counterexample(self, name, no_fuzz):
        mutant = WIDE_MUTANTS[name]
        before = _counts()
        lane_verdict = _checker(16, WIDE_SPEC).check_equivalence(mutant, WIDE_SPEC)
        assert _delta(before, "lane_fallbacks") == 1
        assert _delta(before, "lane_class_simulations") == 0
        whole_verdict = _checker(None, WIDE_SPEC).check_equivalence(
            mutant, WIDE_SPEC
        )
        assert not lane_verdict.equivalent
        assert lane_verdict.method == whole_verdict.method == "sat"
        assert lane_verdict.counterexample == whole_verdict.counterexample
        env = lane_verdict.counterexample
        assert evaluate(mutant, env).value != evaluate(WIDE_SPEC, env).value


class TestCegisFullWidth:
    def test_exhaustive_lane_verdict_proves_the_full_width_pair(self):
        """The 16 x i8 carry identity of the near-miss stream: its scaled
        query is one 16-input-bit class, proved by simulation, and the
        full-width check is a memo hit on that proof, not a sample."""
        from repro.autollvm import build_dictionary
        from repro.halide import ir as hir
        from repro.synthesis import CegisOptions, build_grammar, synthesize

        a, b = hir.HLoad("a", 16, 8), hir.HLoad("b", 16, 8)
        carry = hir.HBin("shl", hir.HBin("and", a, b), hir.HConst(1, 16, 8))
        window = hir.HBin("add", hir.HBin("xor", a, b), carry)
        grammar = build_grammar(window, "x86", build_dictionary())
        names = ("lane_class_simulations", "lane_class_queries",
                 "full_width_proved", "full_width_sampled")
        perf = global_counters()
        before = {name: getattr(perf, name) for name in names}
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=25.0))
        assert result.stats.verified == "exhaustive"
        assert result.stats.scale_factor > 1
        delta = {name: getattr(perf, name) - before[name] for name in names}
        assert delta["lane_class_simulations"] >= 1
        assert delta["lane_class_queries"] == 0
        assert delta["full_width_proved"] == 1
        assert delta["full_width_sampled"] == 0


class TestBudgetConflicts:
    """A query whose budget runs out still counts its conflicts."""

    X, Y, Z = var("x", 8), var("y", 8), var("z", 8)
    LEFT = _op("bvmul", _op("bvmul", X, Y), Z)
    RIGHT = _op("bvmul", X, _op("bvmul", Y, Z))

    def test_incremental_context(self):
        before = global_counters().sat_conflicts
        context = IncrementalSatContext()
        with pytest.raises(SolverBudgetExceeded):
            context.check_not_equal(self.LEFT, self.RIGHT, max_conflicts=10)
        assert global_counters().sat_conflicts - before > 10

    def test_checker(self):
        before = global_counters().sat_conflicts
        checker = EquivalenceChecker(max_conflicts=10)
        with pytest.raises(SolverTimeout):
            checker.check_equivalence(self.LEFT, self.RIGHT)
        assert global_counters().sat_conflicts - before > 10
