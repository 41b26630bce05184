"""Generic bottom-up rewriting over Hydride IR expressions."""

from __future__ import annotations

from collections.abc import Callable

from repro.hydride_ir.ast import (
    BvBinOp,
    BvBroadcastConst,
    BvCast,
    BvCmp,
    BvConcat,
    BvConst,
    BvExpr,
    BvExtract,
    BvIte,
    BvUnOp,
    ForConcat,
)
from repro.hydride_ir.indexexpr import IndexExpr


def reconstruct(expr: BvExpr, children: list[BvExpr]) -> BvExpr:
    """Rebuild ``expr`` with new children (same node kind and attributes)."""
    if isinstance(expr, BvExtract):
        return BvExtract(children[0], expr.low, expr.width)
    if isinstance(expr, BvBinOp):
        return BvBinOp(expr.op, children[0], children[1])
    if isinstance(expr, BvUnOp):
        return BvUnOp(expr.op, children[0])
    if isinstance(expr, BvCmp):
        return BvCmp(expr.op, children[0], children[1])
    if isinstance(expr, BvCast):
        return BvCast(expr.op, children[0], expr.new_width)
    if isinstance(expr, BvIte):
        return BvIte(children[0], children[1], children[2])
    if isinstance(expr, ForConcat):
        return ForConcat(expr.var, expr.count, children[0])
    if isinstance(expr, BvConcat):
        return BvConcat(tuple(children))
    if children:
        raise TypeError(f"cannot reconstruct {type(expr).__name__} with children")
    return expr


def with_index_exprs(
    expr: BvExpr, fn: Callable[[IndexExpr], IndexExpr]
) -> BvExpr:
    """Rebuild one node with ``fn`` applied to each of its index
    expressions, called once each in :meth:`BvExpr.index_exprs` order;
    the node itself when ``fn`` changes none of them."""
    old = expr.index_exprs()
    new = tuple(map(fn, old))
    if all(a is b for a, b in zip(old, new)):
        return expr
    if isinstance(expr, BvConst):
        return BvConst(*new)
    if isinstance(expr, BvBroadcastConst):
        return BvBroadcastConst(*new)
    if isinstance(expr, BvExtract):
        return BvExtract(expr.src, *new)
    if isinstance(expr, BvCast):
        return BvCast(expr.op, expr.operand, *new)
    assert isinstance(expr, ForConcat)
    return ForConcat(expr.var, *new, expr.body)


def rewrite_bottom_up(expr: BvExpr, fn: Callable[[BvExpr], BvExpr]) -> BvExpr:
    """Apply ``fn`` to every node, children first.

    ``fn`` receives a node whose children are already rewritten and returns
    a replacement (or the node unchanged).
    """
    old = expr.children()
    children = [rewrite_bottom_up(c, fn) for c in old]
    if any(new is not child for new, child in zip(children, old)):
        expr = reconstruct(expr, children)
    return fn(expr)
