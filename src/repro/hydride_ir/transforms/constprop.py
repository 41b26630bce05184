"""Constant propagation and index-expression folding."""

from __future__ import annotations

from repro.hydride_ir.ast import (
    BvConcat,
    BvConst,
    BvExpr,
    BvIte,
    ForConcat,
)
from repro.hydride_ir.indexexpr import IConst, normalize_affine, simplify_index
from repro.hydride_ir.transforms.rewrite import rewrite_bottom_up, with_index_exprs


def _canon_index(expr):
    if isinstance(expr, IConst):
        return expr
    return normalize_affine(simplify_index(expr))


def _fold_node(expr: BvExpr) -> BvExpr:
    expr = with_index_exprs(expr, _canon_index)
    if isinstance(expr, ForConcat):
        count = expr.count
        if isinstance(count, IConst) and count.value == 1 and not _uses_ivar(
            expr.body, expr.var
        ):
            return expr.body
        return expr
    if isinstance(expr, BvIte):
        cond = expr.cond
        if isinstance(cond, BvConst) and isinstance(cond.value, IConst):
            return expr.then_expr if cond.value.value else expr.else_expr
        return expr
    if isinstance(expr, BvConcat) and len(expr.parts) == 1:
        return expr.parts[0]
    return expr


def _uses_ivar(expr: BvExpr, name: str) -> bool:
    for node in expr.walk():
        for index_expr in node.index_exprs():
            if name in index_expr.ivars():
                return True
    return False


def propagate_constants(expr: BvExpr) -> BvExpr:
    """Fold index arithmetic and collapse degenerate structure.

    Note that single-iteration loops whose body ignores the iterator are
    removed here; :func:`repro.hydride_ir.transforms.canonicalize.canonicalize`
    re-adds the artificial inner loop afterwards so the canonical two-level
    shape is restored deterministically.
    """
    return rewrite_bottom_up(expr, _fold_node)
