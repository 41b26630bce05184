"""Canonicalisation pipeline for instruction semantics.

Section 3.3 of the paper: semantics must contain "at least two loops in a
loop nest: one outer loop for iteration over lanes ... and an inner loop
for iteration over elements in a given lane", with an artificial
single-iteration inner loop added for pure SIMD instructions.  This module
drives rerolling + constant propagation, enforces that shape, and names
the loops so that a spec's canonical form depends on its semantics alone.
"""

from __future__ import annotations

import itertools

from repro.hydride_ir.ast import (
    BvConcat,
    BvExpr,
    ForConcat,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IBin, IConst, IndexExpr, IVar
from repro.hydride_ir.transforms.constprop import propagate_constants
from repro.hydride_ir.transforms.reroll import reroll
from repro.hydride_ir.transforms.rewrite import reconstruct, with_index_exprs


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
        return ForConcat("_l", IConst(1), ForConcat("_e", IConst(1), expr))
    if _loop_depth_on_spine(expr) >= 2:
        return expr
    # One loop over elements: add the artificial single-iteration inner loop.
    return ForConcat(expr.var, expr.count, ForConcat("_e", IConst(1), expr.body))


def _renamed_index(expr: IndexExpr, names: dict[str, str]) -> IndexExpr:
    if isinstance(expr, IVar):
        return IVar(names[expr.name]) if expr.name in names else expr
    if isinstance(expr, IBin):
        left = _renamed_index(expr.left, names)
        right = _renamed_index(expr.right, names)
        if left is not expr.left or right is not expr.right:
            return IBin(expr.op, left, right)
    return expr


def name_loops(expr: BvExpr) -> BvExpr:
    """Rename every loop ``_i0, _i1, ...`` in pre-order.

    Loop variables are bound names, so this changes no semantics; it
    makes the serialised canonical form independent of whatever fresh
    names lowering and rerolling drew before."""
    fresh = itertools.count()

    def visit(node: BvExpr, names: dict[str, str]) -> BvExpr:
        def rename(index: IndexExpr) -> IndexExpr:
            return _renamed_index(index, names)

        if isinstance(node, ForConcat):
            var = f"_i{next(fresh)}"
            return ForConcat(
                var, rename(node.count), visit(node.body, {**names, node.var: var})
            )
        old = node.children()
        children = [visit(child, names) for child in old]
        if any(new is not child for new, child in zip(children, old)):
            node = reconstruct(node, children)
        return with_index_exprs(node, rename)

    return visit(expr, {})


def canonicalize(func: SemanticsFunction) -> SemanticsFunction:
    """Reroll, fold, enforce the two-level lane/element loop shape and
    name the loops.  Only an unrolled body holds a concatenation for
    :func:`reroll` to roll up; a body lowered as loops skips it."""
    body = func.body
    if any(isinstance(node, BvConcat) for node in body.walk()):
        body = reroll(body)
    body = _ensure_two_level(propagate_constants(body))
    return func.with_body(name_loops(body))
