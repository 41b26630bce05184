"""Lane scaling (Section 4.2).

"HYDRIDE leverages the parameterization of the AutoLLVM IR to uniformly
scale (not truncate) the number of lanes in the vector ISAs for
synthesis.  Solver time complexity grows exponentially with the sizes of
the bitvectors, and so reducing the sizes of the bitvectors enables
synthesis to be tractable for targets such as HVX which can have
2048-bit vectors."

Specification scaling divides every lane count in the Halide IR window by
the scale factor.  Instruction scaling divides the *extensive* parameters
of a class member — the input register widths and the outer (lane) loop
count — leaving intensive parameters (element widths, offsets, shift
amounts) untouched; invalid scalings are detected by instantiation and
reported as None so the caller falls back to a smaller factor or to
unscaled synthesis.

Program scaling is the same law applied to a target program: CEGIS
scales its scaled-width solution up to the spec's width, the rule
distiller scales cached programs down to their base shape, and the
rule matcher scales instantiated templates back up — all three through
:func:`scale_up_program` / :func:`scale_down_program`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.autollvm.intrinsics import TargetBinding
from repro.halide import ir as hir
from repro.hydride_ir.ast import ForConcat
from repro.hydride_ir.indexexpr import IParam
from repro.hydride_ir.interp import SemanticsError, resolved_input_widths, interpret
from repro.bitvector.bv import BitVector
from repro.similarity.constants import SymbolicSemantics
from repro.synthesis.program import (
    SConstant,
    SHole,
    SInput,
    SNode,
    SOp,
    SSwizzle,
    map_program,
)


def scale_spec(expr: hir.HExpr, factor: int) -> hir.HExpr | None:
    """Scale a Halide IR window's lane counts down by ``factor``."""
    if factor == 1:
        return expr

    def scale(node: hir.HExpr) -> hir.HExpr:
        if isinstance(node, hir.HLoad):
            if node.lanes % factor:
                raise _CannotScale
            return hir.HLoad(node.name, node.lanes // factor, node.elem_width, node.stride)
        if isinstance(node, hir.HConst):
            if node.lanes % factor:
                raise _CannotScale
            return hir.HConst(node.value, node.lanes // factor, node.elem_width)
        if isinstance(node, hir.HBroadcast):
            if node.lanes % factor:
                raise _CannotScale
            return hir.HBroadcast(node.name, node.lanes // factor, node.elem_width)
        if isinstance(node, hir.HBin):
            return hir.HBin(node.op, scale(node.left), scale(node.right))
        if isinstance(node, hir.HCmp):
            return hir.HCmp(node.op, scale(node.left), scale(node.right))
        if isinstance(node, hir.HSelect):
            return hir.HSelect(
                scale(node.cond), scale(node.then_expr), scale(node.else_expr)
            )
        if isinstance(node, hir.HCast):
            return hir.HCast(node.kind, scale(node.src), node.new_elem_width)
        if isinstance(node, hir.HSlice):
            if node.start % factor or node.lanes % factor:
                raise _CannotScale
            return hir.HSlice(scale(node.src), node.start // factor, node.lanes // factor)
        if isinstance(node, hir.HConcat):
            # A tile (concat of identical parts, e.g. a broadcast weight
            # chunk) scales by dropping tiles, keeping each part intact.
            if len(set(node.parts)) == 1 and len(node.parts) % factor == 0:
                keep = len(node.parts) // factor
                if keep >= 1:
                    return hir.HConcat(tuple(node.parts[:keep]))
            return hir.HConcat(tuple(scale(p) for p in node.parts))
        if isinstance(node, hir.HReduceAdd):
            return hir.HReduceAdd(scale(node.src), node.factor)
        if isinstance(node, hir.HShuffle):
            raise _CannotScale  # arbitrary shuffles do not scale uniformly
        raise TypeError(type(node).__name__)

    try:
        return scale(expr)
    except (_CannotScale, ValueError):
        # ValueError: a structural constraint (e.g. a reduce-add factor no
        # longer dividing the scaled lane count) rules this factor out.
        return None


class _CannotScale(Exception):
    pass


def _extensive_params(symbolic: SymbolicSemantics) -> set[str]:
    """Parameters proportional to vector size.

    The outer lane-loop count always scales.  An input width scales only
    when it is register-sized relative to the output (equal, half, or
    double) or equal to the lane count (AVX-512 mask registers).
    Immediate widths, scalar shift registers, and broadcast source chunks
    are *intensive* and stay fixed.
    """
    from repro.hydride_ir.interp import compute_width, resolved_input_widths

    values = symbolic.param_values
    func = symbolic.to_function()
    try:
        widths = resolved_input_widths(func, values)
        out_bits = compute_width(func.body, values, widths)
    except Exception:
        out_bits = 0

    extensive: set[str] = set()
    body = symbolic.body
    outer_count = None
    if isinstance(body, ForConcat):
        if isinstance(body.count, IParam):
            extensive.add(body.count.name)
            outer_count = values.get(body.count.name)
    register_sized = {out_bits, out_bits // 2, out_bits * 2}
    for inp in symbolic.inputs:
        if inp.is_immediate or not isinstance(inp.width, IParam):
            continue
        width_value = values.get(inp.width.name)
        if width_value in register_sized or width_value == outer_count:
            extensive.add(inp.width.name)
    return extensive


def scaled_member_values(
    binding: TargetBinding, factor: int
) -> tuple[int, ...] | None:
    """Scale a member's parameter vector; None when illegal."""
    symbolic = binding.member.symbolic
    values = list(binding.member.values())
    if factor == 1:
        return tuple(values)
    extensive = _extensive_params(symbolic)
    if not extensive:
        return None
    for index, name in enumerate(symbolic.param_names):
        if name in extensive:
            if values[index] % factor or values[index] // factor == 0:
                return None
            values[index] //= factor
    scaled = tuple(values)
    # Validate by instantiating and running on an arbitrary input.
    assignment = dict(zip(symbolic.param_names, scaled))
    func = symbolic.to_function(assignment)
    try:
        widths = resolved_input_widths(func, assignment)
        env = {name: BitVector(0, width) for name, width in widths.items()}
        interpret(func, env, assignment)
    except (SemanticsError, ValueError, KeyError):
        return None
    return scaled


def normalize_factor(expr: hir.HExpr) -> int:
    """The largest power-of-two lane scale-down that keeps >= 2 lanes.

    Both the rule distiller and the rule matcher normalize windows
    through this, so any two lane-multiples of the same base shape land
    on the same rulebook index key.
    """
    factor = 1
    while True:
        doubled = factor * 2
        scaled = scale_spec(expr, doubled)
        if scaled is None or scaled.type.lanes < 2:
            return factor
        factor = doubled


# ----------------------------------------------------------------------
# Program scaling
# ----------------------------------------------------------------------


def scale_up_program(node: SNode, factor: int) -> SNode | None:
    """Scale a program up by ``factor``; None when some op cannot land.

    Leaf lane counts, swizzle output widths and rotate amounts multiply.
    Each :class:`SOp` lands at full scale (``scaled_values`` None) on its
    own binding when the target width is that binding's native width,
    and otherwise on the equivalence-class sibling of the same ISA,
    element width and argument order at the target width
    (``_mm_add_epi16`` → ``_mm256_add_epi16``).  A target below the
    native width is refused rather than served partially scaled: CEGIS
    emits sub-native windows as a slice of a native-width op.
    """
    return _rescale(node, factor, _upscale_node)


def scale_down_program(node: SNode, factor: int) -> SNode | None:
    """Scale a full-width program down by ``factor``; None when illegal.

    The inverse of :func:`scale_up_program`: lane counts, output widths
    and rotate amounts divide, and each instruction keeps its binding
    with the parameter vector :func:`scaled_member_values` gives it.
    Scaling the result back up reproduces the input (up to the
    ``scaled_values``-versus-None encoding of "full scale").
    """
    return _rescale(node, factor, _downscale_node)


def _rescale(node: SNode, factor: int, step) -> SNode | None:
    if factor == 1:
        return node
    try:
        return map_program(node, partial(step, factor))
    except _CannotScale:
        return None


def _upscale_node(factor: int, node: SNode) -> SNode:
    if isinstance(node, (SInput, SConstant, SHole)):
        return replace(node, lanes=node.lanes * factor)
    if isinstance(node, SSwizzle):
        amount = node.amount
        if node.pattern == "rotate_right":
            amount *= factor
        return replace(node, out_bits=node.out_bits * factor, amount=amount)
    if not isinstance(node, SOp):
        return node  # views follow their operands
    target_bits = node.out_bits * factor
    here = node.binding
    if target_bits < here.spec.output_width:
        raise _CannotScale
    elem = here.spec.attributes.get("elem_width")
    for binding in (here, *node.op.bindings):
        if binding.spec.output_width == target_bits and (
            binding is here
            or (
                binding.isa == here.isa
                and binding.spec.attributes.get("elem_width") == elem
                and binding.member.arg_order == here.member.arg_order
            )
        ):
            return replace(
                node, binding=binding, scaled_values=None, out_bits=target_bits
            )
    raise _CannotScale


def _downscale_node(factor: int, node: SNode) -> SNode:
    if isinstance(node, (SInput, SConstant, SHole)):
        if node.lanes % factor:
            raise _CannotScale
        return replace(node, lanes=node.lanes // factor)
    if isinstance(node, SSwizzle):
        amount = node.amount
        if node.pattern == "rotate_right":
            if amount % factor:
                raise _CannotScale
            amount //= factor
        if node.out_bits % factor:
            raise _CannotScale
        return replace(node, out_bits=node.out_bits // factor, amount=amount)
    if not isinstance(node, SOp):
        return node  # views follow their operands
    # Stored programs are full-scale: a partially scaled op is refused.
    if node.out_bits % factor or (
        tuple(node.values()) != tuple(node.binding.member.values())
    ):
        raise _CannotScale
    scaled = scaled_member_values(node.binding, factor)
    if scaled is None:
        raise _CannotScale
    return replace(node, scaled_values=scaled, out_bits=node.out_bits // factor)
