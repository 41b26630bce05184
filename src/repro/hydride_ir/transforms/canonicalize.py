"""Canonicalisation pipeline for instruction semantics.

Section 3.3 of the paper: semantics must contain "at least two loops in a
loop nest: one outer loop for iteration over lanes ... and an inner loop
for iteration over elements in a given lane", with an artificial
single-iteration inner loop added for pure SIMD instructions.  This module
drives rerolling + constant propagation and then enforces that shape.
"""

from __future__ import annotations

import itertools

from repro.hydride_ir.ast import (
    BvExpr,
    ForConcat,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IConst
from repro.hydride_ir.transforms.constprop import propagate_constants
from repro.hydride_ir.transforms.reroll import reroll

_FRESH = itertools.count()


def _loop_depth_on_spine(expr: BvExpr) -> int:
    """Number of ForConcat nodes on the outermost loop spine."""
    depth = 0
    node = expr
    while isinstance(node, ForConcat):
        depth += 1
        node = node.body
    return depth


def _ensure_two_level(expr: BvExpr) -> BvExpr:
    """Wrap the loop nest so the spine has (at least) two levels."""
    if not isinstance(expr, ForConcat):
        # Scalar semantics: wrap in a 1x1 lane/element nest.
        inner = ForConcat(f"_e{next(_FRESH)}", IConst(1), expr)
        return ForConcat(f"_l{next(_FRESH)}", IConst(1), inner)
    if _loop_depth_on_spine(expr) >= 2:
        return expr
    # One loop over elements: add the artificial single-iteration inner loop.
    inner = ForConcat(f"_e{next(_FRESH)}", IConst(1), expr.body)
    return ForConcat(expr.var, expr.count, inner)


def canonicalize(func: SemanticsFunction) -> SemanticsFunction:
    """Reroll, fold, and enforce the two-level lane/element loop shape."""
    body = propagate_constants(reroll(func.body))
    return func.with_body(_ensure_two_level(body))
