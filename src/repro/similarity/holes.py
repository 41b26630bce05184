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
    BvBroadcastConst,
    BvCast,
    BvConst,
    BvExpr,
    BvExtract,
    BvVar,
    ForConcat,
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import (
    IBin,
    IConst,
    IndexExpr,
    normalize_affine,
    simplify_index,
    substitute_index,
)
from repro.hydride_ir.interp import resolved_input_widths
from repro.hydride_ir.transforms.rewrite import rewrite_bottom_up
from repro.smt.solver import EquivalenceChecker
from repro.similarity.constants import SymbolicSemantics, extract_constants
from repro.similarity.equivalence import instantiable, lowered


def _has_trailing_const(expr: IndexExpr) -> bool:
    """True when the normalised affine form already ends in ``+ c``."""
    return (
        isinstance(expr, IConst)
        or (isinstance(expr, IBin) and expr.op == "+" and isinstance(expr.right, IConst))
    )


def _concretize_body(symbolic: SymbolicSemantics, normalize: bool = False) -> BvExpr:
    """Substitute the instruction's own parameter values back into its body
    (and normalise every index expression when ``normalize``)."""
    bindings = {name: IConst(v) for name, v in symbolic.param_values.items()}

    def index(expr: IndexExpr) -> IndexExpr:
        expr = substitute_index(expr, bindings)
        return normalize_affine(simplify_index(expr)) if normalize else expr

    def fix(node: BvExpr) -> BvExpr:
        if isinstance(node, BvConst):
            return BvConst(index(node.value), index(node.width))
        if isinstance(node, BvBroadcastConst):
            return BvBroadcastConst(
                index(node.value), index(node.elem_width), index(node.num_elems)
            )
        if isinstance(node, BvExtract):
            return BvExtract(node.src, index(node.low), index(node.width))
        if isinstance(node, BvCast):
            return BvCast(node.op, node.operand, index(node.new_width))
        if isinstance(node, ForConcat):
            return ForConcat(node.var, index(node.count), node.body)
        return node

    return rewrite_bottom_up(symbolic.body, fix)


def _lowers_identically(a: SymbolicSemantics, b: SymbolicSemantics) -> bool:
    """For two instructions instantiable at their own values: True when
    they lower there to one interned term, decided on the IR.

    Lowering reads input names and widths and each index expression's
    value under the iterator bindings, so equal inputs and equal bodies
    (parameter values substituted, index expressions normalised) build the
    same term node by node.  An iterator named like a parameter would be
    substituted too: such a body answers False."""
    if any(
        isinstance(node, ForConcat) and node.var in s.param_values
        for s in (a, b) for node in s.body.walk()
    ):
        return False
    first, second = (
        (
            list(resolved_input_widths(s.to_function(), s.param_values).items()),
            _concretize_body(s, normalize=True),
        )
        for s in (a, b)
    )
    return first == second


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
    ``%hole = add i32 %low.i, i32 0``.  Identity is decided on the IR when
    it can be (counted ``structural``, the verdict the ladder gives one
    interned term twice); only a refinement that changes the body is
    lowered and checked.  None when no extract wants a hole or the
    original cannot be instantiated at all.
    """
    for candidate in candidates:
        refined = insert_offset_holes(symbolic, candidate)
        if refined is None:
            return None
        if not instantiable(symbolic, symbolic.values_vector(), checker):
            # check_similar never merges such an instruction either; it
            # stays an unrefined singleton instead of failing the build.
            checker.stats["uninstantiable"] = checker.stats.get("uninstantiable", 0) + 1
            return None
        if not instantiable(refined, refined.values_vector(), checker):
            continue
        if _lowers_identically(symbolic, refined):
            checker.stats["structural"] += 1
            return refined
        original = lowered(symbolic, symbolic.values_vector(), None, checker)
        refined_term = lowered(refined, refined.values_vector(), None, checker)
        if checker.check_equivalence(original, refined_term).equivalent:
            return refined
    return None
