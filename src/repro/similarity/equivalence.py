"""Semantic similarity checks between parameterized instructions.

Two instructions are *similar* (Section 3.1) when their parameter counts
match and their parameterized semantics are equivalent under the same
concrete parameter values.  Following the paper's example, we verify
equivalence under both instructions' own parameter vectors: substituting
k^J into Sigma(I, alpha) must yield semantics equivalent to Phi(J, k^J),
and vice versa.
"""

from __future__ import annotations

import itertools

from repro.hydride_ir.interp import SemanticsError, check_instantiable, to_term
from repro.smt.solver import EquivalenceChecker, SolverTimeout
from repro.similarity.constants import SymbolicSemantics


def instantiate_term(
    symbolic: SymbolicSemantics,
    values: tuple[int, ...],
    order: tuple[int, ...] | None = None,
):
    """Lower Sigma(I, alpha) at a concrete assignment to a solver term.

    Inputs are renamed positionally to ``x0, x1, ...`` so that two
    instructions' terms share variables.  ``order`` optionally permutes
    the positional alignment: ``order[i]`` names which of this
    instruction's inputs plays canonical role ``i`` (the PermuteArgs step
    of Algorithm 1).  Raises on invalid instantiations (negative widths,
    out-of-range slices).
    """
    assignment = dict(zip(symbolic.param_names, values))
    func = symbolic.to_function(assignment)
    if order is None:
        order = tuple(range(len(symbolic.inputs)))
    rename = {
        symbolic.inputs[member_index].name: f"x{position}"
        for position, member_index in enumerate(order)
    }
    return to_term(func, assignment, rename)


# What an invalid instantiation raises, from the walk and from lowering alike.
_INVALID = (SemanticsError, ValueError, KeyError, IndexError)

# Wider instructions are never searched for a similar argument order.
MAX_PERMUTATION_ARITY = 3


def instantiable(
    symbolic: SymbolicSemantics,
    values: tuple[int, ...],
    checker: EquivalenceChecker,
) -> bool:
    """Whether Sigma(I, alpha) instantiates validly at ``values``.

    Decided by :func:`check_instantiable`, which builds no term, at most
    once per checker for each ``(alpha_key, values)``; a term already in
    :func:`lowered`'s memo answers at once."""
    key = (symbolic.alpha_key, values)
    if key not in checker.instantiable:
        term_key = key + (None,)
        if term_key in checker.lowered:
            checker.instantiable[key] = checker.lowered[term_key] is not None
        else:
            assignment = dict(zip(symbolic.param_names, values))
            try:
                check_instantiable(symbolic.to_function(assignment), assignment)
                checker.instantiable[key] = True
            except _INVALID:
                checker.instantiable[key] = False
    return checker.instantiable[key]


def lowered(
    symbolic: SymbolicSemantics,
    values: tuple[int, ...],
    order: tuple[int, ...] | None,
    checker: EquivalenceChecker,
):
    """:func:`instantiate_term` for a pair that reaches the solver ladder,
    at most once per checker (one engine or shard worker) for each distinct
    ``(alpha_key, values, order)`` — equal keys lower to the same term.
    None when the instantiation is invalid."""
    key = (symbolic.alpha_key, values, order)
    if key not in checker.lowered:
        try:
            checker.lowered[key] = instantiate_term(symbolic, values, order)
        except _INVALID:
            checker.lowered[key] = None
    return checker.lowered[key]


def check_similar(
    a: SymbolicSemantics,
    b: SymbolicSemantics,
    checker: EquivalenceChecker,
    order_b: tuple[int, ...] | None = None,
) -> bool:
    """Decide Sigma(I, alpha) === Sigma(J, alpha) per the paper's criteria.

    ``order_b`` permutes instruction ``b``'s argument alignment; any explicit
    order (the identity included) goes through instantiate-and-check.
    """
    if a.signature() != b.signature():
        return False
    if order_b is None and a.alpha_key == b.alpha_key:
        # The alpha-equivalence rung: one function up to naming, so at any
        # assignment both sides lower to the same interned term and the
        # ladder below could only refuse over an invalid instantiation —
        # which, the sides being interchangeable, is one of these two.
        checker.stats["alpha"] += 1
        return all(instantiable(s, s.values_vector(), checker) for s in (a, b))
    assignments = {a.values_vector(), b.values_vector()}
    for values in sorted(assignments):
        term_a = lowered(a, values, None, checker)
        term_b = None if term_a is None else lowered(b, values, order_b, checker)
        if term_b is None or term_a.width != term_b.width:
            return False
        try:
            result = checker.check_equivalence(term_a, term_b)
        except (SolverTimeout, ValueError):
            return False
        if not result.equivalent:
            return False
    return True


def find_similar_permutation(
    a: SymbolicSemantics,
    b: SymbolicSemantics,
    checker: EquivalenceChecker,
) -> tuple[int, ...] | None:
    """Search non-identity argument orders of ``b`` that make it similar
    to ``a`` (e.g. x86 ``andnot`` = NOT(a) AND b vs ARM ``bic`` =
    a AND NOT(b)).  Immediate operands keep their positions."""
    if a.signature() != b.signature():
        return None
    arity = len(b.inputs)
    if arity < 2 or arity > MAX_PERMUTATION_ARITY:
        return None
    register_positions = [
        i for i, inp in enumerate(b.inputs) if not inp.is_immediate
    ]
    for permuted in itertools.permutations(register_positions):
        if permuted == tuple(register_positions):
            continue
        order = list(range(arity))
        for position, member_index in zip(register_positions, permuted):
            order[position] = member_index
        if check_similar(a, b, checker, tuple(order)):
            return tuple(order)
    return None
