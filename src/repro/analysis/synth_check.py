"""Well-typedness check for synthesis candidate programs.

Lowering a malformed candidate DAG to an SMT term (an ``SOp`` applied at
the wrong arity, a recorded ``out_bits`` that disagrees with the member
semantics, a swizzle fed operands of unequal widths) silently produces a
wrong query.  This module names such defects: pure integer bookkeeping,
no solver and no interpretation.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    IRVerificationError,
    Provenance,
    Severity,
)
from repro.hydride_ir.interp import SemanticsError, compute_width
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SInput,
    SNode,
    SOp,
    SSlice,
    SSwizzle,
    SWIZZLE_SHAPES,
)


def check_program(
    node: SNode,
    *,
    isa: str = "",
    stage: str = "",
    sink: DiagnosticSink | None = None,
) -> list[Diagnostic]:
    """Check one candidate program DAG; returns the diagnostics found."""
    own_sink = sink or DiagnosticSink()
    before = len(own_sink.diagnostics)
    seen: set[int] = set()

    def report(rule: str, message: str, where: SNode) -> None:
        own_sink.emit(
            rule,
            message,
            Severity.ERROR,
            Provenance(isa=isa, stage=stage, node=_describe(where)),
        )

    def visit(current: SNode) -> None:
        if id(current) in seen:
            return
        seen.add(id(current))
        for child in current.children():
            visit(child)
        _check_node(current, report)

    visit(node)
    return own_sink.diagnostics[before:]


def _describe(node: SNode) -> str:
    describe = getattr(node, "describe", None)
    if describe is None:
        return type(node).__name__
    text = describe()
    return text if len(text) <= 80 else text[:77] + "..."


def _check_node(node: SNode, report) -> None:
    if isinstance(node, (SInput, SConstant)):
        if node.lanes <= 0 or node.elem_width <= 0:
            report(
                "synth/nonpositive-width",
                f"{node.lanes} x {node.elem_width}-bit leaf",
                node,
            )
        return

    if isinstance(node, SSlice):
        bits = node.src.bits
        if bits < 2 or bits % 2:
            report(
                "synth/slice-width",
                f"half-slice of a {bits}-bit value",
                node,
            )
        return

    if isinstance(node, SConcat):
        if node.high_part.bits <= 0 or node.low_part.bits <= 0:
            report(
                "synth/nonpositive-width",
                f"concat of {node.high_part.bits} and {node.low_part.bits} bits",
                node,
            )
        return

    if isinstance(node, SSwizzle):
        shape = SWIZZLE_SHAPES.get(node.pattern)
        if shape is None:
            report(
                "synth/swizzle-arity",
                f"unknown swizzle pattern {node.pattern!r}",
                node,
            )
            return
        arity, ratio = shape
        if len(node.args) != arity:
            report(
                "synth/swizzle-arity",
                f"{node.pattern} takes {arity} operand(s), got {len(node.args)}",
                node,
            )
            return
        widths = {a.bits for a in node.args}
        if len(widths) > 1:
            report(
                "synth/swizzle-width",
                f"{node.pattern} over unequal widths {sorted(widths)}",
                node,
            )
            return
        bits = node.args[0].bits
        if node.elem_width <= 0 or bits % node.elem_width:
            report(
                "synth/swizzle-width",
                f"element width {node.elem_width} does not divide {bits} bits",
                node,
            )
            return
        expected = bits * 2 if node.pattern == "interleave_full" else int(bits * ratio)
        if node.out_bits != expected:
            report(
                "synth/swizzle-width",
                f"{node.pattern} records {node.out_bits} output bits, "
                f"semantics gives {expected}",
                node,
            )
        return

    if isinstance(node, SOp):
        values = dict(
            zip(node.binding.member.symbolic.param_names, node.values())
        )
        try:
            func = node.binding.member.symbolic.to_function(values)
        except Exception as exc:  # malformed binding
            report("synth/op-arity", f"cannot instantiate member: {exc}", node)
            return
        register_inputs = [i for i in func.inputs if not i.is_immediate]
        imm_inputs = [i for i in func.inputs if i.is_immediate]
        if len(node.args) != len(register_inputs):
            report(
                "synth/op-arity",
                f"{func.name} takes {len(register_inputs)} register "
                f"argument(s), got {len(node.args)}",
                node,
            )
            return
        if len(node.imm_values) != len(imm_inputs):
            report(
                "synth/imm-arity",
                f"{func.name} takes {len(imm_inputs)} immediate(s), "
                f"got {len(node.imm_values)}",
                node,
            )
            return
        widths: dict[str, int] = {}
        for inp, arg in zip(register_inputs, node.args):
            try:
                declared = inp.width.evaluate(values)
            except KeyError as exc:
                report(
                    "synth/arg-width",
                    f"{func.name}: width of {inp.name!r} unresolved: {exc}",
                    node,
                )
                return
            widths[inp.name] = declared
            if arg.bits != declared:
                report(
                    "synth/arg-width",
                    f"{func.name}: input {inp.name!r} declared at "
                    f"{declared} bits, argument supplies {arg.bits}",
                    node,
                )
        for inp in imm_inputs:
            try:
                widths[inp.name] = inp.width.evaluate(values)
            except KeyError:
                widths[inp.name] = 0
        try:
            out_width = compute_width(func.body, values, widths)
        except (SemanticsError, KeyError, ZeroDivisionError) as exc:
            report(
                "synth/out-width",
                f"{func.name}: cannot infer output width: {exc}",
                node,
            )
            return
        if node.out_bits != out_width:
            report(
                "synth/out-width",
                f"{func.name} records {node.out_bits} output bits, "
                f"semantics produces {out_width}",
                node,
            )
        return

    report("synth/op-arity", f"unknown node {type(node).__name__}", node)


def assert_program(node: SNode, *, isa: str = "", stage: str = "") -> None:
    """Raise :class:`IRVerificationError` if the candidate is malformed."""
    diagnostics = check_program(node, isa=isa, stage=stage)
    if diagnostics:
        raise IRVerificationError(diagnostics, context=stage or "candidate")
