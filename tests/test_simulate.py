"""Bit-parallel simulation of blasted miters (``repro.smt.simulate``).

A simulation verdict is complete, so it is checked against the two other
complete deciders: the evaluator on every input, and CDCL on the miter.
Pairs are drawn from random terms over every blasted operator (the
generator of ``test_bitblast_sharing``) on small inputs: equal pairs that
share no gate, unequal ones, and one-point differences no random input
would find.
"""

import itertools
import random

import pytest

from repro.bitvector import BitVector
from repro.smt import simulate
from repro.smt.bitblast import BitBlaster
from repro.smt.eval import evaluate
from repro.smt.sat import CdclSolver
from repro.smt.simulate import simulate_equal
from repro.smt.terms import apply_op, const, var
from tests.test_bitblast_sharing import BLASTED_OPS, _TermGenerator


class _SmallInputs(_TermGenerator):
    """``_TermGenerator`` over a few narrow inputs, so the pairs it
    builds can also be checked on every input by the evaluator."""

    def __init__(self, rng: random.Random, widths) -> None:
        self.rng = rng
        self.pool = {}
        self.variables = {}
        for index, width in enumerate(widths):
            self._add(var(f"v{index}", width))
            self.variables[f"v{index}"] = width


def _op(op, *args, params=()):
    return apply_op(op, list(args), params)


def _equal_everywhere(a, b) -> bool:
    variables = dict(a.variables())
    variables.update(b.variables())
    names = sorted(variables)
    for values in itertools.product(*(range(1 << variables[n]) for n in names)):
        env = {n: BitVector(v, variables[n]) for n, v in zip(names, values)}
        if evaluate(a, env).value != evaluate(b, env).value:
            return False
    return True


def _cdcl_equal(a, b) -> bool:
    blaster = BitBlaster()
    bits_a, bits_b = blaster.blast(a), blaster.blast(b)
    cnf = blaster.cnf
    cnf.assert_lit(cnf.gate_big_or([cnf.gate_xor(x, y) for x, y in zip(bits_a, bits_b)]))
    return not CdclSolver(cnf.num_vars, cnf.clauses).solve(200_000).satisfiable


def _pairs(seed: int):
    """Equal and unequal pairs over 8 input bits."""
    rng = random.Random(seed)
    gen = _SmallInputs(rng, (3, 5))
    ops = list(BLASTED_OPS)
    rng.shuffle(ops)
    terms = gen.grow(ops)
    v0 = var("v0", 3)
    pairs = []
    for term in rng.sample(terms, 8):
        other = gen.operand(term.width)
        point = const(rng.randrange(8), 3)
        bump = _op("ite", _op("bveq", v0, point),
                   _op("bvadd", term, const(1, term.width)), term)
        pairs += [
            # Equal, and no gate in common with ``term``'s output.
            (term, _op("bvsub", _op("bvadd", term, other), other)),
            (term, _op("bvxor", _op("bvxor", term, other), other)),
            # Differs exactly where v0 == point.
            (term, bump),
            (term, other),
        ]
    return pairs


class TestAgreesWithEvaluatorAndCdcl:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs(self, seed):
        verdicts = set()
        for a, b in _pairs(seed):
            verdict = simulate_equal(a, b)
            assert verdict is not None
            assert verdict == _equal_everywhere(a, b) == _cdcl_equal(a, b), (a, b)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_chunked_points_agree(self, monkeypatch):
        """Chunks of 8 points: five of the eight inputs are constant per
        chunk, so the per-chunk input assignment is what gets tested."""
        monkeypatch.setattr(simulate, "SIMULATION_CHUNK_BITS", 3)
        for a, b in _pairs(11):
            assert simulate_equal(a, b) == _equal_everywhere(a, b), (a, b)

    def test_one_point_difference_at_sixteen_bits(self):
        """``x + y`` off by one only at ``(0x5a, 0xa5)``: one point of
        65,536, found in the last of the 16 chunks' worth of inputs."""
        x, y = var("x", 8), var("y", 8)
        total = _op("bvadd", x, y)
        hit = _op("bvand", _op("bveq", x, const(0x5A, 8)),
                  _op("bveq", y, const(0xA5, 8)))
        bumped = _op("ite", hit, _op("bvadd", total, const(1, 8)), total)
        carry = _op("bvshl", _op("bvand", x, y), const(1, 8))
        spelled = _op("bvadd", _op("bvxor", x, y), carry)
        assert simulate_equal(bumped, total) is False
        assert simulate_equal(spelled, total) is True
        assert simulate_equal(_op("bvmul", x, y), _op("bvmul", y, x)) is True
        assert simulate_equal(bumped, spelled) is _cdcl_equal(bumped, spelled) is False


class TestNoOpinion:
    def test_above_sixteen_input_bits(self):
        x, y = var("x", 8), var("y", 9)
        assert simulate_equal(_op("bvadd", x, _op("extract", y, params=(7, 0))),
                              _op("bvadd", _op("extract", y, params=(7, 0)), x)) is None

    def test_pair_that_does_not_blast(self):
        x, y = var("x", 4), var("y", 4)
        assert simulate_equal(_op("bvudiv", x, y), _op("bvudiv", x, y)) is None
        assert simulate_equal(_op("popcount", x), x) is None

    def test_over_the_gate_budget(self, monkeypatch):
        x, y = var("x", 8), var("y", 8)
        monkeypatch.setattr(simulate, "SIMULATION_GATE_BUDGET", 10)
        assert simulate_equal(_op("bvmul", x, y), _op("bvmul", y, x)) is None
