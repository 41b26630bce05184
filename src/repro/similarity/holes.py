"""Hole insertion for refining equivalence classes (Section 3.3).

``_mm512_unpacklo_epi8`` reads its input windows at lane offset 0 while
``_mm256_unpackhi_epi16`` reads at offset +half-window; after affine
normalisation the two slice-offset expressions differ only in that one
carries a trailing additive constant and the other does not — so constant
extraction produces different parameter counts and plain similarity
checking cannot relate them.

The paper inserts a *hole* — an unknown operation applied to the low
index, synthesized "in terms of inner and outer loop iterators, low
index, and constant values" — and finds ``add %low, 0``.  Here the hole
grammar is the same family (``low + c``); :func:`synthesize_offset_hole`
verifies that the candidate ``c = 0`` preserves the instruction's own
semantics, splices it in, and re-extracts constants so the new parameter
occupies the canonical position.
"""

from __future__ import annotations

from repro.hydride_ir.ast import (
    BvExpr,
    BvExtract,
    BvVar,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import (
    IBin,
    IConst,
    IndexExpr,
    substitute_index,
)
from repro.hydride_ir.transforms.rewrite import rewrite_bottom_up
from repro.smt.solver import EquivalenceChecker
from repro.similarity.constants import SymbolicSemantics, extract_constants
from repro.similarity.equivalence import lowered


def _has_trailing_const(expr: IndexExpr) -> bool:
    """True when the normalised affine form already ends in ``+ c``."""
    return (
        isinstance(expr, IConst)
        or (isinstance(expr, IBin) and expr.op == "+" and isinstance(expr.right, IConst))
    )


def _concretize_body(symbolic: SymbolicSemantics) -> BvExpr:
    """Substitute the instruction's own parameter values back into its body."""
    bindings = {name: IConst(v) for name, v in symbolic.param_values.items()}

    def fix(node: BvExpr) -> BvExpr:
        index_exprs = node.index_exprs()
        if not index_exprs:
            return node
        from repro.hydride_ir.transforms.rewrite import reconstruct
        from repro.hydride_ir.ast import (
            BvBroadcastConst,
            BvCast,
            BvConcat,
            BvConst,
            ForConcat,
        )

        new_indexes = [substitute_index(ie, bindings) for ie in index_exprs]
        kids = list(node.children())
        if isinstance(node, BvConst):
            return BvConst(new_indexes[0], new_indexes[1])
        if isinstance(node, BvBroadcastConst):
            return BvBroadcastConst(new_indexes[0], new_indexes[1], new_indexes[2])
        if isinstance(node, BvExtract):
            return BvExtract(kids[0], new_indexes[0], new_indexes[1])
        if isinstance(node, BvCast):
            return BvCast(node.op, kids[0], new_indexes[0])
        if isinstance(node, ForConcat):
            return ForConcat(node.var, new_indexes[0], kids[0])
        del BvConcat, reconstruct
        return node

    return rewrite_bottom_up(symbolic.body, fix)


def insert_offset_holes(
    symbolic: SymbolicSemantics, hole_value: int = 0
) -> SymbolicSemantics | None:
    """Splice ``low + hole_value`` into input-slice offsets lacking one.

    Returns re-extracted symbolic semantics (parameters renumbered in
    canonical order), or None when no extract needed a hole.
    """
    body = _concretize_body(symbolic)
    inserted = 0

    def visit(node: BvExpr) -> BvExpr:
        nonlocal inserted
        if (
            isinstance(node, BvExtract)
            and isinstance(node.src, BvVar)
            and not _has_trailing_const(node.low)
        ):
            inserted += 1
            return BvExtract(
                node.src, IBin("+", node.low, IConst(hole_value)), node.width
            )
        return node

    body = rewrite_bottom_up(body, visit)
    if inserted == 0:
        return None

    concrete_inputs = []
    from repro.hydride_ir.ast import Input

    for inp in symbolic.inputs:
        width = substitute_index(
            inp.width, {n: IConst(v) for n, v in symbolic.param_values.items()}
        )
        concrete_inputs.append(Input(inp.name, width, inp.is_immediate))
    func = SemanticsFunction(
        symbolic.name, tuple(concrete_inputs), {}, body, IConst(0)
    )
    return extract_constants(func, symbolic.isa)


def synthesize_offset_hole(
    symbolic: SymbolicSemantics,
    checker: EquivalenceChecker,
    candidates: tuple[int, ...] = (0,),
) -> SymbolicSemantics | None:
    """Synthesize the hole expression ``low + c``.

    The hole must preserve the instruction's own semantics, so the only
    admissible constant is one for which the refined instruction is
    equivalent to the original at its own parameter values — the paper's
    ``%hole = add i32 %low.i, i32 0``.  None when no extract wants a hole
    (nothing is lowered) or the original cannot be instantiated at all.
    """
    for candidate in candidates:
        refined = insert_offset_holes(symbolic, candidate)
        if refined is None:
            return None
        original = lowered(symbolic, symbolic.values_vector(), None, checker)
        if original is None:
            # check_similar never merges such an instruction either; it
            # stays an unrefined singleton instead of failing the build.
            checker.stats["uninstantiable"] = checker.stats.get("uninstantiable", 0) + 1
            return None
        refined_term = lowered(refined, refined.values_vector(), None, checker)
        if refined_term is not None and checker.check_equivalence(
            original, refined_term
        ).equivalent:
            return refined
    return None
