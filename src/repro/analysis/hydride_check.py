"""Type-and-width inference checker for Hydride IR semantics functions.

The interpreter and the solver lowering both *assume* a well-formed body:
equal operand widths, in-range extracts, positive loop counts, uniform
lane widths.  Violations surface only when (and if) the bad path is
executed — often as a wrong SMT query rather than a Python error.  This
checker walks the expression tree once per loop-iteration assignment and
verifies every assumption eagerly, reporting violations through the
:mod:`repro.analysis.diagnostics` engine.

Widths are inferred bottom-up under a concrete parameter environment
(the instruction's own ``params`` by default), with ``ForConcat`` bodies
re-checked at every iterator value so affine *and* non-affine index
expressions are covered exactly.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Provenance,
    Severity,
)
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
from repro.hydride_ir.indexexpr import IConst, IndexExpr
from repro.smt import terms as smt

_SHIFT_OPS = frozenset({"bvshl", "bvlshr", "bvashr"})
_SATURATING_CASTS = frozenset({"saturate_to_signed", "saturate_to_unsigned"})
_NARROWING_CASTS = frozenset({"trunc"}) | _SATURATING_CASTS
_WIDENING_CASTS = frozenset({"zext", "sext"})


class _Checker:
    """One check run over one semantics function."""

    def __init__(
        self,
        func: SemanticsFunction,
        env: dict[str, int],
        sink: DiagnosticSink,
        provenance: Provenance,
    ) -> None:
        self.func = func
        self.env = env
        self.sink = sink
        self.provenance = provenance
        self.input_widths: dict[str, int] = {}

    # -- reporting -------------------------------------------------------

    def report(
        self,
        rule: str,
        message: str,
        node: BvExpr | None = None,
        severity: Severity = Severity.ERROR,
    ) -> None:
        where = Provenance(
            isa=self.provenance.isa,
            instruction=self.provenance.instruction,
            stage=self.provenance.stage,
            node=type(node).__name__ if node is not None else "",
        )
        self.sink.emit(rule, message, severity, where)

    # -- index evaluation ------------------------------------------------

    def eval_index(
        self, expr: IndexExpr, env: Mapping[str, int], node: BvExpr, what: str
    ) -> int | None:
        """Evaluate an index expression, diagnosing unbound symbols."""
        try:
            return expr.evaluate(env)
        except KeyError as exc:
            self.report(
                "hydride/unbound-symbol", f"{what}: {exc.args[0]}", node
            )
        except (ZeroDivisionError, ArithmeticError) as exc:
            self.report("hydride/index-eval", f"{what}: {exc}", node)
        return None

    # -- declarations ----------------------------------------------------

    def check_inputs(self) -> None:
        seen: set[str] = set()
        for inp in self.func.inputs:
            if inp.name in seen:
                self.report(
                    "hydride/input-decl", f"duplicate input {inp.name!r}"
                )
            seen.add(inp.name)
            width = self.eval_index(
                inp.width, self.env, self.func.body, f"width of input {inp.name!r}"
            )
            if width is None:
                continue
            if width <= 0:
                self.report(
                    "hydride/input-decl",
                    f"input {inp.name!r} has non-positive width {width}",
                )
                continue
            self.input_widths[inp.name] = width

    # -- width inference -------------------------------------------------

    def width(self, expr: BvExpr, env: dict[str, int]) -> int | None:
        """Bit width of ``expr`` under ``env``; None once diagnosis failed."""
        if isinstance(expr, BvVar):
            if expr.name not in self.input_widths:
                self.report(
                    "hydride/unknown-input",
                    f"reference to undeclared input {expr.name!r}",
                    expr,
                )
                return None
            return self.input_widths[expr.name]

        if isinstance(expr, BvConst):
            width = self.eval_index(expr.width, env, expr, "constant width")
            if width is None:
                return None
            if width <= 0:
                self.report(
                    "hydride/nonpositive-width",
                    f"constant declared at width {width}",
                    expr,
                )
                return None
            value = self.eval_index(expr.value, env, expr, "constant value")
            if value is not None and not -(1 << (width - 1)) <= value < (1 << width):
                self.report(
                    "hydride/const-range",
                    f"value {value} does not fit {width} bits",
                    expr,
                    Severity.WARNING,
                )
            return width

        if isinstance(expr, BvBroadcastConst):
            elem = self.eval_index(expr.elem_width, env, expr, "element width")
            count = self.eval_index(expr.num_elems, env, expr, "element count")
            if elem is None or count is None:
                return None
            if elem <= 0 or count <= 0:
                self.report(
                    "hydride/nonpositive-width",
                    f"broadcast of {count} x {elem}-bit elements",
                    expr,
                )
                return None
            value = self.eval_index(expr.value, env, expr, "broadcast value")
            if value is not None and not -(1 << (elem - 1)) <= value < (1 << elem):
                self.report(
                    "hydride/const-range",
                    f"splat value {value} does not fit {elem} bits",
                    expr,
                    Severity.WARNING,
                )
            return elem * count

        if isinstance(expr, BvExtract):
            src_width = self.width(expr.src, env)
            low = self.eval_index(expr.low, env, expr, "extract low bound")
            width = self.eval_index(expr.width, env, expr, "extract width")
            if width is not None and width <= 0:
                self.report(
                    "hydride/nonpositive-width",
                    f"extract of width {width}",
                    expr,
                )
                return None
            if src_width is None or low is None or width is None:
                return width
            if low < 0 or low + width > src_width:
                self.report(
                    "hydride/extract-bounds",
                    f"slice [{low}, {low + width}) of a {src_width}-bit value",
                    expr,
                )
            return width

        if isinstance(expr, BvBinOp):
            if expr.op not in smt.BINARY_SAME_WIDTH:
                self.report(
                    "hydride/op-name", f"unknown binary op {expr.op!r}", expr
                )
            left = self.width(expr.left, env)
            right = self.width(expr.right, env)
            if left is not None and right is not None and left != right:
                self.report(
                    "hydride/binop-width",
                    f"{expr.op} over widths {left} and {right}",
                    expr,
                )
            if expr.op in _SHIFT_OPS and left is not None:
                self._check_shift_amount(expr, env, left)
            return left if left is not None else right

        if isinstance(expr, BvUnOp):
            if expr.op not in smt.UNARY_SAME_WIDTH:
                self.report(
                    "hydride/op-name", f"unknown unary op {expr.op!r}", expr
                )
            return self.width(expr.operand, env)

        if isinstance(expr, BvCmp):
            if expr.op not in smt.COMPARISONS:
                self.report(
                    "hydride/op-name", f"unknown comparison {expr.op!r}", expr
                )
            left = self.width(expr.left, env)
            right = self.width(expr.right, env)
            if left is not None and right is not None and left != right:
                self.report(
                    "hydride/cmp-width",
                    f"{expr.op} over widths {left} and {right}",
                    expr,
                )
            return 1

        if isinstance(expr, BvCast):
            if expr.op not in smt.WIDTH_CHANGING:
                self.report(
                    "hydride/op-name", f"unknown cast {expr.op!r}", expr
                )
            src = self.width(expr.operand, env)
            new = self.eval_index(expr.new_width, env, expr, "cast width")
            if new is None:
                return None
            if new <= 0:
                self.report(
                    "hydride/nonpositive-width", f"cast to width {new}", expr
                )
                return None
            if src is not None:
                if expr.op in _WIDENING_CASTS and new < src:
                    self.report(
                        "hydride/cast-width",
                        f"{expr.op} from {src} down to {new} bits",
                        expr,
                    )
                elif expr.op == "trunc" and new > src:
                    self.report(
                        "hydride/cast-width",
                        f"trunc from {src} up to {new} bits",
                        expr,
                    )
                elif expr.op in _SATURATING_CASTS and new > src:
                    self.report(
                        "hydride/saturate-width",
                        f"{expr.op} widens {src} to {new} bits",
                        expr,
                        Severity.WARNING,
                    )
            return new

        if isinstance(expr, BvIte):
            cond = self.width(expr.cond, env)
            if cond is not None and cond != 1:
                self.report(
                    "hydride/ite-cond", f"condition is {cond} bits wide", expr
                )
            then_w = self.width(expr.then_expr, env)
            else_w = self.width(expr.else_expr, env)
            if then_w is not None and else_w is not None and then_w != else_w:
                self.report(
                    "hydride/ite-branch",
                    f"branch widths {then_w} and {else_w}",
                    expr,
                )
            return then_w if then_w is not None else else_w

        if isinstance(expr, ForConcat):
            count = self.eval_index(expr.count, env, expr, "loop count")
            if count is None:
                return None
            if count <= 0:
                self.report(
                    "hydride/loop-count", f"loop count {count}", expr
                )
                return None
            total = 0
            first_width: int | None = None
            for i in range(count):
                body_env = dict(env)
                body_env[expr.var] = i
                body_width = self.width(expr.body, body_env)
                if body_width is None:
                    return None
                if first_width is None:
                    first_width = body_width
                elif body_width != first_width:
                    self.report(
                        "hydride/lane-width",
                        f"iteration {i} produces {body_width} bits, "
                        f"iteration 0 produced {first_width}",
                        expr,
                    )
                    return None
                total += body_width
            return total

        if isinstance(expr, BvConcat):
            if not expr.parts:
                self.report(
                    "hydride/nonpositive-width", "empty concatenation", expr
                )
                return None
            total = 0
            for part in expr.parts:
                part_width = self.width(part, env)
                if part_width is None:
                    return None
                total += part_width
            return total

        self.report(
            "hydride/op-name",
            f"unknown expression node {type(expr).__name__}",
            expr,
        )
        return None

    def _check_shift_amount(
        self, expr: BvBinOp, env: dict[str, int], width: int
    ) -> None:
        """Constant shift amounts must be in ``[0, width)``.

        Shifting by the full width is well-defined on the bitvector
        substrate (it yields zero / the sign fill) but never appears in a
        correct vendor spec — it means an element width and a shift
        constant were conflated somewhere upstream.
        """
        amount: int | None = None
        right = expr.right
        if isinstance(right, BvConst):
            amount = self.eval_index(right.value, env, expr, "shift amount")
        elif isinstance(right, BvBroadcastConst):
            amount = self.eval_index(right.value, env, expr, "shift amount")
            elem = self.eval_index(right.elem_width, env, expr, "shift element")
            if elem is not None:
                width = elem
        if amount is not None and not 0 <= amount < width:
            self.report(
                "hydride/shift-range",
                f"{expr.op} by constant {amount} on {width}-bit operand",
                expr,
            )


def check_semantics(
    func: SemanticsFunction,
    params: Mapping[str, int] | None = None,
    *,
    declared_output_width: int | None = None,
    isa: str = "",
    stage: str = "",
    sink: DiagnosticSink | None = None,
) -> list[Diagnostic]:
    """Check one semantics function; returns the diagnostics found.

    ``params`` overrides the function's own parameter assignment (used to
    lint a parameterized semantics at a specific instantiation);
    ``declared_output_width`` additionally cross-checks the inferred body
    width against the catalog's declared register width.
    """
    own_sink = sink or DiagnosticSink()
    before = len(own_sink.diagnostics)
    env = dict(params if params is not None else func.params)
    provenance = Provenance(isa=isa, instruction=func.name, stage=stage)
    checker = _Checker(func, env, own_sink, provenance)
    checker.check_inputs()
    body_width = checker.width(func.body, env)
    if body_width is not None:
        expected: int | None = None
        if declared_output_width is not None:
            expected = declared_output_width
        elif not (
            isinstance(func.output_width, IConst) and func.output_width.value == 0
        ):
            expected = checker.eval_index(
                func.output_width, env, func.body, "declared output width"
            )
        if expected is not None and expected != body_width:
            checker.report(
                "hydride/output-width",
                f"body produces {body_width} bits, declared {expected}",
            )
    return own_sink.diagnostics[before:]

