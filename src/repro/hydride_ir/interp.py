"""Interpretation and solver-lowering of Hydride IR.

Two consumers need to execute semantics functions:

* the differential fuzzer and the synthesizer evaluate them on concrete
  register values (:func:`interpret`),
* the Similarity Checking Engine and CEGIS verification lower them to
  symbolic :class:`repro.smt.Term` DAGs (:func:`to_term`) under a concrete
  parameter assignment — the paper's Phi(I, k) with k substituted.

:func:`check_instantiable` decides whether :func:`to_term` would succeed
without building the term, for callers that only need that fact.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.bitvector.bv import BitVector
from repro.smt import terms as smt
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
    BvVar,
    ForConcat,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IBin, IndexExpr


class SemanticsError(Exception):
    """An ill-formed semantics function (bad widths, unknown input, ...)."""


def compute_width(expr: BvExpr, env: Mapping[str, int], input_widths: Mapping[str, int]) -> int:
    """The bit width of ``expr`` under index environment ``env``."""
    if isinstance(expr, BvVar):
        return input_widths[expr.name]
    if isinstance(expr, BvConst):
        return expr.width.evaluate(env)
    if isinstance(expr, BvBroadcastConst):
        return expr.elem_width.evaluate(env) * expr.num_elems.evaluate(env)
    if isinstance(expr, BvExtract):
        return expr.width.evaluate(env)
    if isinstance(expr, (BvBinOp,)):
        return compute_width(expr.left, env, input_widths)
    if isinstance(expr, BvUnOp):
        return compute_width(expr.operand, env, input_widths)
    if isinstance(expr, BvCmp):
        return 1
    if isinstance(expr, BvCast):
        return expr.new_width.evaluate(env)
    if isinstance(expr, BvIte):
        return compute_width(expr.then_expr, env, input_widths)
    if isinstance(expr, ForConcat):
        count = expr.count.evaluate(env)
        body_env = dict(env)
        body_env[expr.var] = 0
        return count * compute_width(expr.body, body_env, input_widths)
    if isinstance(expr, BvConcat):
        return sum(compute_width(p, env, input_widths) for p in expr.parts)
    raise SemanticsError(f"unknown expression node {type(expr).__name__}")


def resolved_input_widths(
    func: SemanticsFunction, params: Mapping[str, int]
) -> dict[str, int]:
    """Concrete widths of every input under a parameter assignment."""
    return {i.name: i.width.evaluate(params) for i in func.inputs}


def interpret(
    func: SemanticsFunction,
    inputs: Mapping[str, BitVector],
    params: Mapping[str, int] | None = None,
) -> BitVector:
    """Run the semantics on concrete register values."""
    return make_evaluator(func, params)(inputs)


def make_evaluator(func: SemanticsFunction, params: Mapping[str, int] | None = None):
    """A reusable concrete evaluator with the per-call setup hoisted out.

    The parameter environment and every input-width expression are
    resolved once; the synthesizer applies the same instruction (same
    parameter vector) to thousands of candidate argument tuples.  The
    resolved widths are exposed as ``input_widths`` so callers can
    build argument environments without touching the width expressions.
    """
    param_env: dict[str, int] = dict(params if params is not None else func.params)
    widths = resolved_input_widths(func, param_env)

    def evaluate(inputs: Mapping[str, BitVector]) -> BitVector:
        _check_inputs(widths, inputs)
        return _run_body(func, inputs, param_env)

    evaluate.input_widths = widths  # type: ignore[attr-defined]
    return evaluate


def _check_inputs(
    widths: Mapping[str, int], inputs: Mapping[str, BitVector]
) -> None:
    for name, width in widths.items():
        value = inputs.get(name)
        if value is None:
            raise SemanticsError(f"missing input {name!r}")
        if value.width != width:
            raise SemanticsError(
                f"input {name!r} has width {value.width}, expected {width}"
            )


def _run_body(
    func: SemanticsFunction,
    inputs: Mapping[str, BitVector],
    param_env: dict[str, int],
) -> BitVector:
    def run(expr: BvExpr, env: dict[str, int]) -> BitVector:
        if isinstance(expr, BvVar):
            return inputs[expr.name]
        if isinstance(expr, BvConst):
            return BitVector(expr.value.evaluate(env), expr.width.evaluate(env))
        if isinstance(expr, BvBroadcastConst):
            elem = BitVector(expr.value.evaluate(env), expr.elem_width.evaluate(env))
            count = expr.num_elems.evaluate(env)
            result = elem
            for _ in range(count - 1):
                result = result.concat(elem)
            return result
        if isinstance(expr, BvExtract):
            src = run(expr.src, env)
            low = expr.low.evaluate(env)
            width = expr.width.evaluate(env)
            if low < 0 or low + width > src.width:
                raise SemanticsError(
                    f"extract [{low}, {low + width}) out of range "
                    f"for width {src.width} in {func.name}"
                )
            return src.extract(low + width - 1, low)
        if isinstance(expr, BvBinOp):
            left = run(expr.left, env)
            right = run(expr.right, env)
            if expr.op == "bvuavg_round":
                return left.bvuavg(right, round_up=True)
            if expr.op == "bvsavg_round":
                return left.bvsavg(right, round_up=True)
            return getattr(left, expr.op)(right)
        if isinstance(expr, BvUnOp):
            return getattr(run(expr.operand, env), expr.op)()
        if isinstance(expr, BvCmp):
            return getattr(run(expr.left, env), expr.op)(run(expr.right, env))
        if isinstance(expr, BvCast):
            return getattr(run(expr.operand, env), expr.op)(expr.new_width.evaluate(env))
        if isinstance(expr, BvIte):
            cond = run(expr.cond, env)
            return run(expr.then_expr, env) if cond.value else run(expr.else_expr, env)
        if isinstance(expr, ForConcat):
            count = expr.count.evaluate(env)
            if count <= 0:
                raise SemanticsError(f"loop count {count} in {func.name}")
            pieces: list[BitVector] = []
            for i in range(count):
                env_i = dict(env)
                env_i[expr.var] = i
                pieces.append(run(expr.body, env_i))
            result = pieces[0]
            for piece in pieces[1:]:
                result = piece.concat(result)
            return result
        if isinstance(expr, BvConcat):
            parts = [run(p, env) for p in expr.parts]
            result = parts[0]
            for part in parts[1:]:
                result = part.concat(result)
            return result
        raise SemanticsError(f"unknown expression node {type(expr).__name__}")

    return run(func.body, param_env)


def to_term(
    func: SemanticsFunction,
    params: Mapping[str, int] | None = None,
    rename: Mapping[str, str] | None = None,
) -> smt.Term:
    """Lower to a symbolic term with inputs as free variables.

    ``rename`` optionally maps input names to fresh variable names, which
    the similarity engine uses to align the argument lists of two
    instructions before an equivalence query.
    """
    param_env: dict[str, int] = dict(params if params is not None else func.params)
    widths = resolved_input_widths(func, param_env)
    rename = rename or {}

    def run(expr: BvExpr, env: dict[str, int]) -> smt.Term:
        if isinstance(expr, BvVar):
            return smt.var(rename.get(expr.name, expr.name), widths[expr.name])
        if isinstance(expr, BvConst):
            return smt.const(expr.value.evaluate(env), expr.width.evaluate(env))
        if isinstance(expr, BvBroadcastConst):
            elem = smt.const(expr.value.evaluate(env), expr.elem_width.evaluate(env))
            count = expr.num_elems.evaluate(env)
            result: smt.Term = elem
            for _ in range(count - 1):
                result = smt.apply_op("concat", [elem, result])
            return result
        if isinstance(expr, BvExtract):
            src = run(expr.src, env)
            low = expr.low.evaluate(env)
            width = expr.width.evaluate(env)
            if low < 0 or low + width > src.width:
                raise SemanticsError(
                    f"extract [{low}, {low + width}) out of range "
                    f"for width {src.width} in {func.name}"
                )
            return smt.apply_op("extract", [src], (low + width - 1, low))
        if isinstance(expr, BvBinOp):
            return smt.apply_op(expr.op, [run(expr.left, env), run(expr.right, env)])
        if isinstance(expr, BvUnOp):
            return smt.apply_op(expr.op, [run(expr.operand, env)])
        if isinstance(expr, BvCmp):
            return smt.apply_op(expr.op, [run(expr.left, env), run(expr.right, env)])
        if isinstance(expr, BvCast):
            return smt.apply_op(
                expr.op, [run(expr.operand, env)], (expr.new_width.evaluate(env),)
            )
        if isinstance(expr, BvIte):
            return smt.apply_op(
                "ite",
                [run(expr.cond, env), run(expr.then_expr, env), run(expr.else_expr, env)],
            )
        if isinstance(expr, ForConcat):
            count = expr.count.evaluate(env)
            if count <= 0:
                raise SemanticsError(f"loop count {count} in {func.name}")
            pieces: list[smt.Term] = []
            for i in range(count):
                env_i = dict(env)
                env_i[expr.var] = i
                pieces.append(run(expr.body, env_i))
            result = pieces[0]
            for piece in pieces[1:]:
                result = smt.apply_op("concat", [piece, result])
            return result
        if isinstance(expr, BvConcat):
            parts = [run(p, env) for p in expr.parts]
            result = parts[0]
            for part in parts[1:]:
                result = smt.apply_op("concat", [part, result])
            return result
        raise SemanticsError(f"unknown expression node {type(expr).__name__}")

    return run(func.body, param_env)


def _affine_in(expr: IndexExpr, name: str) -> bool:
    """Whether ``expr`` is affine in the loop iterator ``name``."""
    if not isinstance(expr, IBin):
        return True
    left, right = name in expr.left.ivars(), name in expr.right.ivars()
    if expr.op in ("+", "-"):
        return _affine_in(expr.left, name) and _affine_in(expr.right, name)
    if expr.op == "*":
        return not (left and right) and (
            _affine_in(expr.left, name) and _affine_in(expr.right, name)
        )
    return not (left or right)


def _uniform_loop(loop: ForConcat) -> bool:
    """Whether every iteration of ``loop`` has one width and the walk's
    range checks are linear in the iterator, so the first and last
    iterations decide the rest: no width, cast width, constant width or
    inner loop count mentions the iterator, every offset or constant
    value that does is affine in it, and no inner loop rebinds it."""
    name = loop.var
    for node in loop.body.walk():
        if isinstance(node, ForConcat) and node.var == name:
            return False
        exprs = node.index_exprs()
        if isinstance(node, (BvConst, BvBroadcastConst, BvExtract)):
            value, sized = exprs[0], exprs[1:]
            if not _affine_in(value, name):
                return False
        else:
            sized = exprs
        if any(name in expr.ivars() for expr in sized):
            return False
    return True


def check_instantiable(
    func: SemanticsFunction, params: Mapping[str, int] | None = None
) -> int:
    """The width of ``to_term(func, params)``, computed without building it:
    the same walk over widths and index values only, raising where
    :func:`to_term` would (every operator's width and legality rule comes
    from :func:`repro.smt.terms.result_width`).

    A ``ForConcat`` whose iterations all have one width and whose range
    checks are linear in the iterator (:func:`_uniform_loop`) is walked at
    its first and last iterations: a linear check that holds at both ends
    holds between them.  Any other loop is walked once per iteration."""
    param_env: dict[str, int] = dict(params if params is not None else func.params)
    widths = resolved_input_widths(func, param_env)
    uniform: dict[int, bool] = {}

    def const_width(value: IndexExpr, width: IndexExpr, env: dict[str, int]) -> int:
        value.evaluate(env)
        bits = width.evaluate(env)
        if bits < 0:  # smt.const masks with ``1 << width``
            raise ValueError(f"negative constant width {bits} in {func.name}")
        return bits

    def run(expr: BvExpr, env: dict[str, int]) -> int:
        if isinstance(expr, BvVar):
            return widths[expr.name]
        if isinstance(expr, BvConst):
            return const_width(expr.value, expr.width, env)
        if isinstance(expr, BvBroadcastConst):
            elem = const_width(expr.value, expr.elem_width, env)
            return elem * max(1, expr.num_elems.evaluate(env))
        if isinstance(expr, BvExtract):
            src = run(expr.src, env)
            low = expr.low.evaluate(env)
            width = expr.width.evaluate(env)
            if low < 0 or low + width > src:
                raise SemanticsError(
                    f"extract [{low}, {low + width}) out of range "
                    f"for width {src} in {func.name}"
                )
            return smt.result_width("extract", [src], (low + width - 1, low))
        if isinstance(expr, (BvBinOp, BvCmp, BvUnOp)):
            return smt.result_width(expr.op, [run(c, env) for c in expr.children()])
        if isinstance(expr, BvCast):
            return smt.result_width(
                expr.op, [run(expr.operand, env)], (expr.new_width.evaluate(env),)
            )
        if isinstance(expr, BvIte):
            return smt.result_width("ite", [run(c, env) for c in expr.children()])
        if isinstance(expr, ForConcat):
            count = expr.count.evaluate(env)
            if count <= 0:
                raise SemanticsError(f"loop count {count} in {func.name}")
            body_env = dict(env)
            if id(expr) not in uniform:
                uniform[id(expr)] = _uniform_loop(expr)
            if uniform[id(expr)]:
                body_env[expr.var] = 0
                width = run(expr.body, body_env)
                if count > 1:
                    body_env[expr.var] = count - 1
                    run(expr.body, body_env)
                return count * width
            total = 0
            for i in range(count):
                body_env[expr.var] = i
                total += run(expr.body, body_env)
            return total
        if isinstance(expr, BvConcat):
            parts = [run(p, env) for p in expr.parts]
            return parts[0] + sum(parts[1:])  # empty: IndexError, as to_term
        raise SemanticsError(f"unknown expression node {type(expr).__name__}")

    return run(func.body, param_env)
