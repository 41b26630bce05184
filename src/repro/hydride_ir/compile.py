"""Compile an instantiated semantics function to straight-line Python.

The synthesizer applies one instruction, at one parameter vector, to
thousands of candidate argument tuples.  :func:`compile_semantics` turns
that fixed ``(function, parameters, immediates)`` triple into *one*
Python function over packed integers: every :class:`ForConcat` is
unrolled, every index expression is folded to a literal, widths are
tracked statically, and registers stay whole ints (a lane is a shift and
a mask, never a boxed :class:`BitVector`).

:func:`repro.hydride_ir.interp.interpret` remains the single definition
of what a semantics function means, and is the oracle the generated code
is tested against — never the other way round.  The compiler therefore
accepts only what it can prove statically: a width mismatch, an
out-of-range extract, a non-positive loop count or width, an unbound
name or an operation it has no template for all yield ``None`` ("no
compiled form"), and the caller keeps evaluating through the
interpreter, which decides — possibly lazily, per input — whether that
application is an error.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence

from repro.bitvector.bv import BitVector
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
from repro.hydride_ir.interp import resolved_input_widths


class Decline(Exception):
    """The expression has no compiled form; the interpreter decides."""


_ATOM = re.compile(r"\w+\Z")

# value -> python expression; ``a``/``b`` are operand atoms, ``sa``/``sb``
# their two's-complement readings, ``w`` the operand width, ``M`` its mask
# and ``S`` its sign bit.  Every template yields the canonical unsigned
# result at width ``w``.
_SAME_WIDTH_BINOPS = {
    "bvadd": "(({a} + {b}) & {M})",
    "bvsub": "(({a} - {b}) & {M})",
    "bvmul": "(({a} * {b}) & {M})",
    "bvand": "({a} & {b})",
    "bvor": "({a} | {b})",
    "bvxor": "({a} ^ {b})",
    "bvsmin": "({a} if ({a} ^ {S}) <= ({b} ^ {S}) else {b})",
    "bvsmax": "({a} if ({a} ^ {S}) >= ({b} ^ {S}) else {b})",
    "bvumin": "({a} if {a} <= {b} else {b})",
    "bvumax": "({a} if {a} >= {b} else {b})",
    "bvuaddsat": "min({a} + {b}, {M})",
    "bvusubsat": "({a} - {b} if {a} > {b} else 0)",
    "bvsaddsat": "(max(-{S}, min({S} - 1, {sa} + {sb})) & {M})",
    "bvssubsat": "(max(-{S}, min({S} - 1, {sa} - {sb})) & {M})",
    "bvuavg": "(({a} + {b}) >> 1)",
    "bvuavg_round": "(({a} + {b} + 1) >> 1)",
    "bvsavg": "((({sa} + {sb}) >> 1) & {M})",
    "bvsavg_round": "((({sa} + {sb} + 1) >> 1) & {M})",
}

# Shift and rotate amounts are read unsigned at whatever width they have.
_SHIFT_BINOPS = {
    "bvshl": "((({a} << {b}) & {M}) if {b} < {w} else 0)",
    "bvlshr": "(({a} >> {b}) if {b} < {w} else 0)",
    "bvashr": "(({sa} >> min({b}, {w})) & {M})",
    "bvrotl": "((({a} << ({b} % {w})) | ({a} >> ({w} - {b} % {w}))) & {M})",
    "bvrotr": "((({a} >> ({b} % {w})) | ({a} << ({w} - {b} % {w}))) & {M})",
}

_UNOPS = {
    "bvneg": "(-{a} & {M})",
    "bvnot": "({a} ^ {M})",
    "bvabs": "(abs({sa}) & {M})",
    "popcount": "({a}).bit_count()",
}

# python boolean expressions; signed order is unsigned order with the
# sign bit flipped.
_CMPS = {
    "bveq": "{a} == {b}",
    "bvne": "{a} != {b}",
    "bvult": "{a} < {b}",
    "bvule": "{a} <= {b}",
    "bvugt": "{a} > {b}",
    "bvuge": "{a} >= {b}",
    "bvslt": "({a} ^ {S}) < ({b} ^ {S})",
    "bvsle": "({a} ^ {S}) <= ({b} ^ {S})",
    "bvsgt": "({a} ^ {S}) > ({b} ^ {S})",
    "bvsge": "({a} ^ {S}) >= ({b} ^ {S})",
}


def _mask(width: int) -> str:
    return hex((1 << width) - 1)


def _as_is(code: str) -> str:
    return code


def _fields(template: str, left, right, atom) -> dict[str, object]:
    """Template fields for one application; width is the left's.  An
    operand the template mentions more than once goes through ``atom``."""
    code, width = left
    sign = hex(1 << (width - 1))
    fields: dict[str, object] = {"w": width, "M": _mask(width), "S": sign}
    for key, operand in (("a", code), ("b", right[0] if right else None)):
        if operand is None:
            continue
        if template.count("{" + key + "}") + template.count("{s" + key + "}") > 1:
            operand = atom(operand)
        fields[key] = operand
        fields["s" + key] = f"(({operand} ^ {sign}) - {sign})"
    return fields


# The lane templates as code builders.  Operands are ``(code, width)``
# pairs whose code is side-effect free; ``atom`` binds one the template
# reads twice to a name (by default it is repeated, which is correct
# but slower).  Each raises :class:`Decline` where no template applies.


def binop_code(op: str, left, right, atom=_as_is) -> tuple[str, int]:
    """``op`` applied to two operands: the result's code and width."""
    template = _SHIFT_BINOPS.get(op)
    if template is None:
        template = _SAME_WIDTH_BINOPS.get(op)
        if template is None or left[1] != right[1]:
            raise Decline(op)
    return template.format(**_fields(template, left, right, atom)), left[1]


def unop_code(op: str, operand, atom=_as_is) -> tuple[str, int]:
    template = _UNOPS.get(op)
    if template is None:
        raise Decline(op)
    return template.format(**_fields(template, operand, None, atom)), operand[1]


def cmp_code(op: str, left, right, atom=_as_is) -> str:
    """The comparison as a Python truth value."""
    template = _CMPS.get(op)
    if template is None or left[1] != right[1]:
        raise Decline(op)
    return template.format(**_fields(template, left, right, atom))


def cast_code(op: str, operand, new_width: int) -> tuple[str, int]:
    """A width-changing cast of one operand: the result's code and width."""
    code, width = operand
    if new_width <= 0:
        raise Decline("non-positive cast width")
    grows = new_width >= width
    if op == "zext" and grows:
        return code, new_width
    if op == "trunc" and new_width <= width:
        return f"({code} & {_mask(new_width)})", new_width
    signed = _fields("{sa}", operand, None, _as_is)["sa"]
    if op == "sext" and grows:
        return f"({signed} & {_mask(new_width)})", new_width
    high = (1 << (new_width - 1)) - 1
    if op == "saturate_to_signed":
        return (f"(max({-high - 1}, min({high}, {signed})) "
                f"& {_mask(new_width)})"), new_width
    if op == "saturate_to_unsigned":
        return f"max(0, min({_mask(new_width)}, {signed}))", new_width
    raise Decline(op)


class _Emitter:
    """Emits the body of one compiled function, statement by statement.

    ``run`` returns ``(code, width)``: a side-effect-free Python
    expression whose value is the canonical unsigned reading of the
    sub-expression, and its statically known width.  Expressions an
    operator template mentions more than once are first bound to a
    temporary, in evaluation order, at the current block's indentation.
    """

    def __init__(self, values: dict[str, tuple[str, int]]):
        self.values = values
        self.lines: list[str] = []
        self.depth = 1
        self.temps = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def atom(self, code: str) -> str:
        if _ATOM.match(code):
            return code
        name = self.temp()
        self.emit(f"{name} = {code}")
        return name

    def in_block(self, expr: BvExpr, env: dict[str, int]):
        """Compile ``expr`` into a fresh, one-level-deeper statement list."""
        outer, self.lines = self.lines, []
        self.depth += 1
        try:
            value = self.run(expr, env)
            return value, self.lines
        finally:
            self.lines = outer
            self.depth -= 1

    def condition(self, expr: BvExpr, env: dict[str, int]) -> str:
        """``expr`` as a Python truth value (nonzero bitvector)."""
        if isinstance(expr, BvCmp):
            left, right = self.run(expr.left, env), self.run(expr.right, env)
            return cmp_code(expr.op, left, right, self.atom)
        return self.run(expr, env)[0]

    def concat(self, pieces: list[tuple[str, int]]) -> tuple[str, int]:
        """``pieces[0]`` least significant."""
        if len(pieces) == 1:
            return pieces[0]
        parts, low = [], 0
        for code, width in pieces:
            parts.append(f"({code} << {low})" if low else code)
            low += width
        return "(" + " | ".join(parts) + ")", low

    def run(self, expr: BvExpr, env: dict[str, int]) -> tuple[str, int]:
        if isinstance(expr, BvVar):
            if expr.name not in self.values:
                raise Decline(f"unknown input {expr.name!r}")
            return self.values[expr.name]
        if isinstance(expr, BvConst):
            const = BitVector(expr.value.evaluate(env), expr.width.evaluate(env))
            return hex(const.value), const.width
        if isinstance(expr, BvBroadcastConst):
            elem = BitVector(expr.value.evaluate(env), expr.elem_width.evaluate(env))
            const = elem
            for _ in range(expr.num_elems.evaluate(env) - 1):
                const = const.concat(elem)
            return hex(const.value), const.width
        if isinstance(expr, BvExtract):
            code, src_width = self.run(expr.src, env)
            low = expr.low.evaluate(env)
            width = expr.width.evaluate(env)
            if low < 0 or width <= 0 or low + width > src_width:
                raise Decline("extract out of range")
            if low:
                code = f"({code} >> {low})"
            if low + width < src_width:
                code = f"({code} & {_mask(width)})"
            return code, width
        if isinstance(expr, BvBinOp):
            left, right = self.run(expr.left, env), self.run(expr.right, env)
            return binop_code(expr.op, left, right, self.atom)
        if isinstance(expr, BvUnOp):
            return unop_code(expr.op, self.run(expr.operand, env), self.atom)
        if isinstance(expr, BvCmp):
            return f"(1 if {self.condition(expr, env)} else 0)", 1
        if isinstance(expr, BvCast):
            return cast_code(expr.op, self.run(expr.operand, env),
                             expr.new_width.evaluate(env))
        if isinstance(expr, BvIte):
            # Lazy like the interpreter: only the taken arm's statements run.
            cond = self.condition(expr.cond, env)
            (then_code, then_width), then_lines = self.in_block(expr.then_expr, env)
            (else_code, else_width), else_lines = self.in_block(expr.else_expr, env)
            if then_width != else_width:
                raise Decline("ite arms differ in width")
            if not then_lines and not else_lines:
                return f"({then_code} if {cond} else {else_code})", then_width
            name = self.temp()
            self.emit(f"if {cond}:")
            self.lines.extend(then_lines)
            self.emit(f"    {name} = {then_code}")
            self.emit("else:")
            self.lines.extend(else_lines)
            self.emit(f"    {name} = {else_code}")
            return name, then_width
        if isinstance(expr, ForConcat):
            count = expr.count.evaluate(env)
            if count <= 0:
                raise Decline("non-positive loop count")
            return self.concat(
                [self.run(expr.body, {**env, expr.var: i}) for i in range(count)]
            )
        if isinstance(expr, BvConcat):
            if not expr.parts:
                raise Decline("empty concat")
            return self.concat([self.run(part, env) for part in expr.parts])
        raise Decline(type(expr).__name__)


def compile_semantics(
    func: SemanticsFunction,
    params: Mapping[str, int] | None = None,
    fixed: Mapping[str, int] | None = None,
) -> Callable[[Sequence[int]], int] | None:
    """``func`` under ``params`` as one function over packed ints, or None.

    Inputs named in ``fixed`` (the immediates, in practice) are folded
    into the code as constants; the returned callable takes the remaining
    inputs' values as one sequence, in declaration order, masks each to
    its resolved width exactly as boxing it into a :class:`BitVector`
    would, and returns ``interpret(func, ...).value``.  ``None`` means
    "no compiled form" — see the module docstring.  The generated source
    is kept on the callable as ``source``.
    """
    param_env = dict(params if params is not None else func.params)
    fixed = fixed or {}
    try:
        widths = resolved_input_widths(func, param_env)
        values: dict[str, tuple[str, int]] = {}
        prelude: list[str] = []
        for name, width in widths.items():
            if width <= 0:
                raise Decline("non-positive input width")
            if name in fixed:
                values[name] = (hex(fixed[name] & ((1 << width) - 1)), width)
            else:
                values[name] = (f"a{len(prelude)}", width)
                prelude.append(
                    f"    a{len(prelude)} = args[{len(prelude)}] & {_mask(width)}"
                )
        emitter = _Emitter(values)
        result, _ = emitter.run(func.body, param_env)
    except (Decline, KeyError, ArithmeticError, ValueError):
        return None
    source = "\n".join(
        ["def _compiled(args):", *prelude, *emitter.lines, f"    return {result}", ""]
    )
    namespace: dict[str, object] = {}
    exec(compile(source, f"<semantics {func.name}>", "exec"), namespace)
    compiled = namespace["_compiled"]
    compiled.source = source  # type: ignore[attr-defined]
    return compiled  # type: ignore[return-value]
