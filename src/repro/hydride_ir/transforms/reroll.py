"""Loop rerolling: recover ``ForConcat`` loops from unrolled concatenations.

Vendor pseudocode frequently enumerates every element explicitly::

    dst[15:0]  := a[15:0]  + b[15:0]
    dst[31:16] := a[31:16] + b[31:16]
    ...

The parser turns that into a :class:`BvConcat` of per-element expressions;
rerolling *anti-unifies* the parts: all parts must share one tree shape,
and every integer constant position must either be invariant or follow an
affine progression ``base + i * stride`` in the part index ``i``.  Those
positions become index expressions over a fresh loop iterator, and the
whole concatenation collapses to a single ``ForConcat``.
"""

from __future__ import annotations

import itertools

from repro.hydride_ir.ast import BvConcat, BvExpr, ForConcat
from repro.hydride_ir.indexexpr import IBin, IConst, IndexExpr, IVar, ivar
from repro.hydride_ir.transforms.rewrite import (
    reconstruct,
    rewrite_bottom_up,
    with_index_exprs,
)

_FRESH = itertools.count()


class _CannotReroll(Exception):
    pass


def _index_skeletons_match(a: IndexExpr, b: IndexExpr) -> bool:
    """Structural match allowing IConst values to differ."""
    if isinstance(a, IConst) and isinstance(b, IConst):
        return True
    if isinstance(a, IVar) and isinstance(b, IVar):
        return a.name == b.name
    if isinstance(a, IBin) and isinstance(b, IBin):
        return (
            a.op == b.op
            and _index_skeletons_match(a.left, b.left)
            and _index_skeletons_match(a.right, b.right)
        )
    return False


def _generalize_index(
    instances: list[IndexExpr], loop_var: IVar
) -> IndexExpr:
    """Anti-unify index expressions that differ only in IConst values."""
    first = instances[0]
    if isinstance(first, IConst):
        values = [inst.value for inst in instances]  # type: ignore[union-attr]
        if all(v == values[0] for v in values):
            return first
        stride = values[1] - values[0]
        if all(values[i] == values[0] + i * stride for i in range(len(values))):
            # Keep the additive base explicit even when zero: nested
            # rerolling anti-unifies sibling positions structurally, and a
            # folded-away +0 would make their skeletons diverge.
            return IBin(
                "+", IBin("*", loop_var, IConst(stride)), IConst(values[0])
            )
        raise _CannotReroll(f"non-affine constant progression {values}")
    if isinstance(first, IVar):
        return first
    assert isinstance(first, IBin)
    lefts = [inst.left for inst in instances]  # type: ignore[union-attr]
    rights = [inst.right for inst in instances]  # type: ignore[union-attr]
    return IBin(
        first.op,
        _generalize_index(lefts, loop_var),
        _generalize_index(rights, loop_var),
    )


def _expr_skeletons_match(a: BvExpr, b: BvExpr) -> bool:
    """Same node kinds, names and operators, with index skeletons that
    match; loops never match (unrolled pseudocode has none)."""
    if type(a) is not type(b) or isinstance(a, ForConcat):
        return False
    if getattr(a, "name", None) != getattr(b, "name", None):
        return False
    if getattr(a, "op", None) != getattr(b, "op", None):
        return False
    index_a, index_b = a.index_exprs(), b.index_exprs()
    if not all(_index_skeletons_match(x, y) for x, y in zip(index_a, index_b)):
        return False
    kids_a, kids_b = a.children(), b.children()
    if len(kids_a) != len(kids_b):
        return False
    return all(_expr_skeletons_match(x, y) for x, y in zip(kids_a, kids_b))


def _generalize_expr(instances: list[BvExpr], loop_var: IVar) -> BvExpr:
    """One node whose every index position is generalised across
    ``instances`` (which share its skeleton)."""
    first = instances[0]
    kids = [
        _generalize_expr([inst.children()[k] for inst in instances], loop_var)
        for k in range(len(first.children()))
    ]
    node = reconstruct(first, kids) if kids else first
    positions = iter(zip(*(inst.index_exprs() for inst in instances)))
    return with_index_exprs(
        node, lambda _index: _generalize_index(list(next(positions)), loop_var)
    )


def _group_divisors(n: int) -> list[int]:
    """Group sizes to try: 1, then every proper divisor in ascending order."""
    return [g for g in range(1, n) if n % g == 0]


def _anti_unify_units(units: list[BvExpr]) -> BvExpr | None:
    template = units[0]
    if not all(_expr_skeletons_match(template, u) for u in units[1:]):
        return None
    loop_var = ivar(f"_r{next(_FRESH)}")
    try:
        body = _generalize_expr(units, loop_var)
    except _CannotReroll:
        return None
    return ForConcat(loop_var.name, IConst(len(units)), body)


def _try_reroll_concat(expr: BvConcat) -> BvExpr:
    """Reroll a flat concatenation, trying grouped units for interleaves.

    A SIMD instruction rerolls with group size 1.  An interleave emits
    alternating a-slice/b-slice parts, so consecutive parts only unify when
    grouped in pairs; a multi-lane interleave needs one unit per 128-bit
    lane first, with the within-lane concatenation rerolled recursively —
    which recovers exactly the canonical lane/element nest of the paper's
    Figure 3(b).
    """
    parts = list(expr.parts)
    if len(parts) < 2:
        return parts[0] if parts else expr
    for group in _group_divisors(len(parts)):
        if group == 1:
            units: list[BvExpr] = parts
        else:
            units = [
                BvConcat(tuple(parts[i : i + group]))
                for i in range(0, len(parts), group)
            ]
        rolled = _anti_unify_units(units)
        if rolled is not None:
            return ForConcat(rolled.var, rolled.count, reroll(rolled.body))
    return expr


def reroll(expr: BvExpr) -> BvExpr:
    """Reroll every concatenation in ``expr`` that admits a loop form."""

    def visit(node: BvExpr) -> BvExpr:
        if isinstance(node, BvConcat):
            return _try_reroll_concat(node)
        return node

    return rewrite_bottom_up(expr, visit)
