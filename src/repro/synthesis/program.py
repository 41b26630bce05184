"""Candidate program representation for the synthesizer.

A candidate is a DAG whose leaves are the specification's input vectors
and whose interior nodes are target instruction applications (through
their AutoLLVM equivalence-class bindings), specialized swizzle patterns,
or register views (half-slices and concatenations, which are free on
real hardware — subregister addressing).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from repro.bitvector.bv import BitVector
from repro.bitvector.lanes import Vector, vector_from_elems
from repro.bitvector.packed import (
    concat_pair,
    gather_lanes,
    slice_half,
    splat,
    swizzle_order,
)
from repro.autollvm.intrinsics import AutoLLVMOp, TargetBinding
from repro.hydride_ir.compile import compile_semantics
from repro.hydride_ir.interp import make_evaluator
from repro.hydride_ir.interp import to_term as semantics_to_term
from repro.smt import terms as smt
from repro.smt.simplify import substitute


@dataclass(frozen=True)
class SNode:
    """Base class for candidate program nodes."""

    def children(self) -> tuple["SNode", ...]:
        return ()

    @property
    def bits(self) -> int:
        raise NotImplementedError

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def op_count(self) -> int:
        return sum(1 for n in self.walk() if isinstance(n, (SOp, SSwizzle)))


@dataclass(frozen=True)
class SInput(SNode):
    """A specification input vector."""

    name: str
    lanes: int
    elem_width: int

    @property
    def bits(self) -> int:
        return self.lanes * self.elem_width

    def describe(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class SConstant(SNode):
    """A constant splat vector (drawn from the specification's literals)."""

    value: int
    lanes: int
    elem_width: int

    @property
    def bits(self) -> int:
        return self.lanes * self.elem_width

    def describe(self) -> str:
        return f"splat({self.value}, <{self.lanes} x i{self.elem_width}>)"


@dataclass(frozen=True)
class SHole(SNode):
    """A symbolic constant splat — a rule template's typed hole.

    Holes only appear inside distilled rewrite-rule templates
    (:mod:`repro.synthesis.rules`); they must be instantiated to an
    :class:`SConstant` before a program can be evaluated or cached, so
    concrete evaluation raises.  The solver lowering replicates one
    *symbolic* element, which lets a template be verified once over the
    hole's whole domain.
    """

    name: str
    lanes: int
    elem_width: int

    @property
    def bits(self) -> int:
        return self.lanes * self.elem_width

    def describe(self) -> str:
        return f"splat(?{self.name}, <{self.lanes} x i{self.elem_width}>)"


@dataclass(frozen=True)
class SOp(SNode):
    """Application of one target instruction (via its AutoLLVM binding).

    ``imm_values`` fixes any immediate operands; ``scaled_values`` holds
    the member's parameter vector at the current scale factor (equal to
    the member's own values when unscaled).
    """

    op: AutoLLVMOp
    binding: TargetBinding
    args: tuple[SNode, ...]
    imm_values: tuple[int, ...] = ()
    scaled_values: tuple[int, ...] | None = None
    out_bits: int = 0

    def children(self) -> tuple[SNode, ...]:
        return self.args

    @property
    def bits(self) -> int:
        return self.out_bits

    def values(self) -> tuple[int, ...]:
        if self.scaled_values is not None:
            return self.scaled_values
        return self.binding.member.values()

    def describe(self) -> str:
        args = ", ".join(
            a.describe() if hasattr(a, "describe") else "?" for a in self.args
        )
        imms = "".join(f", imm={v}" for v in self.imm_values)
        return f"{self.binding.spec.name}({args}{imms})"


@dataclass(frozen=True)
class SSlice(SNode):
    """Half-register view: the low or high half of a value."""

    src: SNode
    high: bool

    def children(self) -> tuple[SNode, ...]:
        return (self.src,)

    # Cached: views nest, and the enumerator reads widths constantly.
    @cached_property
    def bits(self) -> int:
        return self.src.bits // 2

    def describe(self) -> str:
        half = "hi" if self.high else "lo"
        return f"{half}({self.src.describe()})"


@dataclass(frozen=True)
class SConcat(SNode):
    """Concatenation of two equal-width values (``high:low``)."""

    high_part: SNode
    low_part: SNode

    def children(self) -> tuple[SNode, ...]:
        return (self.high_part, self.low_part)

    @cached_property
    def bits(self) -> int:
        return self.high_part.bits + self.low_part.bits

    def describe(self) -> str:
        return f"concat({self.high_part.describe()}, {self.low_part.describe()})"


@dataclass(frozen=True)
class SSwizzle(SNode):
    """One of the specialized swizzle patterns (Section 4.4)."""

    pattern: str
    args: tuple[SNode, ...]
    elem_width: int
    out_bits: int = 0
    amount: int = 0  # rotate amount for rotate_right

    def children(self) -> tuple[SNode, ...]:
        return self.args

    @property
    def bits(self) -> int:
        return self.out_bits

    def describe(self) -> str:
        args = ", ".join(a.describe() for a in self.args)
        extra = f", {self.amount}" if self.pattern == "rotate_right" else ""
        return f"{self.pattern}.i{self.elem_width}({args}{extra})"


def map_program(node: SNode, fn: Callable[[SNode], SNode]) -> SNode:
    """The one rewrite walk: rebuild ``node`` post-order, each node over
    its mapped children and then passed through ``fn``.

    Children are mapped left to right, so ``fn`` sees the leaves in
    textual order; a node shared by two parents is mapped once per
    occurrence.  ``fn`` may raise to abandon the rewrite."""
    if isinstance(node, SOp):
        node = SOp(
            node.op,
            node.binding,
            tuple(map_program(a, fn) for a in node.args),
            node.imm_values,
            node.scaled_values,
            node.out_bits,
        )
    elif isinstance(node, SSwizzle):
        node = SSwizzle(
            node.pattern,
            tuple(map_program(a, fn) for a in node.args),
            node.elem_width,
            node.out_bits,
            node.amount,
        )
    elif isinstance(node, SSlice):
        node = SSlice(map_program(node.src, fn), node.high)
    elif isinstance(node, SConcat):
        node = SConcat(
            map_program(node.high_part, fn), map_program(node.low_part, fn)
        )
    return fn(node)


def fold_program(
    node: SNode,
    leaf: Callable[[SInput], object],
    step: Callable[[SNode, list], object],
):
    """The one evaluation walk: ``node`` computed post-order, each
    distinct node (by identity) once.

    An :class:`SInput` is ``leaf(input)``; every other node is
    ``step(node, child_results)``, children left to right.  A node
    shared by two parents is computed once and its result reused."""
    done: dict[int, object] = {}

    def run(n: SNode):
        key = id(n)
        if key in done:
            return done[key]
        if isinstance(n, SInput):
            result = leaf(n)
        else:
            result = step(n, [run(kid) for kid in n.children()])
        done[key] = result
        return result

    return run(node)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def apply_node(node: SNode, args: list[BitVector]) -> BitVector:
    """Evaluate one node given its children's already-computed values —
    the one concrete semantics of every node kind."""
    if isinstance(node, SInput):
        raise ValueError("inputs have no arguments")
    if isinstance(node, SHole):
        raise ValueError(f"hole {node.name!r} must be instantiated first")
    if isinstance(node, SConstant):
        elem = BitVector(node.value, node.elem_width)
        return vector_from_elems([elem] * node.lanes).bits
    if isinstance(node, SSlice):
        src = args[0]
        half = src.width // 2
        if node.high:
            return src.extract(src.width - 1, half)
        return src.extract(half - 1, 0)
    if isinstance(node, SConcat):
        return args[0].concat(args[1])
    if isinstance(node, SSwizzle):
        vectors = [Vector(a, node.elem_width) for a in args]
        out = swizzle_elements(node.pattern, vectors, node.amount)
        return vector_from_elems(out).bits
    assert isinstance(node, SOp)
    return _sop_plan(node.binding, node.values(), node.imm_values).apply(args)


def evaluate_program(node: SNode, env: Mapping[str, BitVector]) -> BitVector:
    """Run a candidate on concrete input registers."""
    return fold_program(node, lambda n: env[n.name], apply_node)


def swizzle_elements(pattern: str, vectors: list[Vector], amount: int = 0):
    """Element-level semantics of the swizzle patterns.

    The gather order comes from :func:`repro.bitvector.packed.swizzle_order`
    — the same list the packed evaluator and the solver lowering use, so
    the three views of a pattern agree by construction.
    """
    order = swizzle_order(pattern, vectors[0].num_elems, amount)
    return [vectors[source].elem(index) for source, index in order]


# ----------------------------------------------------------------------
# Instruction plans (read by every evaluator) and packed (integer-domain)
# evaluation — the enumerator's hot path
# ----------------------------------------------------------------------


class _SopPlan:
    """Hoisted per-(binding, params, imms) evaluation state for one SOp.

    Everything applying the instruction would otherwise recompute per
    call — the parameter dict, the concrete semantics function, the
    resolved input widths and the immediate operands — computed once and
    shared by every node applying the same instruction with the same
    parameters.  The compiled form of the semantics is a separate,
    lazily built part: only :func:`sop_applier` reads it, so the
    interpreter path (:func:`apply_node`) never compiles.
    """

    def __init__(
        self,
        binding: TargetBinding,
        values: tuple[int, ...],
        imm_values: tuple[int, ...],
    ) -> None:
        # Held so the id()-keyed cache entry never aliases a recycled
        # binding object.
        self.binding = binding
        symbolic = binding.member.symbolic
        self.params = dict(zip(symbolic.param_names, values))
        self.func = symbolic.to_function(self.params)
        self.evaluator = make_evaluator(self.func, self.params)
        self.imm_env: dict[str, BitVector] = {}
        reg_names: list[str] = []
        imm_iter = iter(imm_values)
        for inp in self.func.inputs:
            if inp.is_immediate:
                width = self.evaluator.input_widths[inp.name]
                self.imm_env[inp.name] = BitVector(next(imm_iter), width)
            else:
                reg_names.append(inp.name)
        self.reg_names = tuple(reg_names)
        self.reg_widths = tuple(
            self.evaluator.input_widths[name] for name in reg_names
        )

    def apply(self, args: list[BitVector]) -> BitVector:
        """The interpreter on register operands ``args``, in order."""
        env = dict(self.imm_env)
        env.update(zip(self.reg_names, args, strict=True))
        return self.evaluator(env)

    @cached_property
    def compiled(self):
        """The compiled semantics, or None when the compiler declines."""
        return compile_semantics(
            self.func,
            self.params,
            {name: imm.value for name, imm in self.imm_env.items()},
        )


# (id(binding), parameter values, immediates) -> the hoisted plan.
_SOP_EVAL_CACHE: dict[tuple, _SopPlan] = {}


def _sop_plan(
    binding: TargetBinding, values: tuple[int, ...], imm_values: tuple[int, ...]
) -> _SopPlan:
    key = (id(binding), values, imm_values)
    plan = _SOP_EVAL_CACHE.get(key)
    if plan is None:
        plan = _SOP_EVAL_CACHE[key] = _SopPlan(binding, values, imm_values)
    return plan


def sop_applier(
    binding: TargetBinding,
    values: tuple[int, ...],
    imm_values: tuple[int, ...],
    arg_widths: tuple[int, ...],
):
    """Packed evaluation of one instruction at one parameter vector.

    Arguments arriving at the instruction's resolved input widths run
    the compiled semantics; anything else — a width-mismatched
    application, or semantics the compiler declined — boxes its operands
    at the *argument's* width and goes through the interpreter, whose
    validation rejects exactly what the object path rejects.
    """
    plan = _sop_plan(binding, values, imm_values)
    if arg_widths == plan.reg_widths and plan.compiled is not None:
        return plan.compiled

    def apply_sop(args: list[int]) -> int:
        return plan.apply(
            [BitVector(value, width) for value, width in zip(args, arg_widths)]
        ).value

    return apply_sop


def swizzle_applier(
    pattern: str, elem_width: int, amount: int, arg_widths: tuple[int, ...]
):
    """Packed evaluation of one swizzle pattern at fixed register widths.

    The gather order depends only on the widths, so it is checked here,
    once: an applier :func:`gather_lanes` would reject on every call is
    never built (the same exception, raised earlier).  Byte-aligned
    elements are then gathered by one ``itemgetter`` over the sources'
    little-endian bytes; other widths go through :func:`gather_lanes`.
    """
    for width in arg_widths:
        if width % elem_width:
            raise ValueError(
                f"register width {width} is not a multiple of "
                f"element width {elem_width}"
            )
    order = swizzle_order(pattern, arg_widths[0] // elem_width, amount)
    widths = list(arg_widths)
    if not order:
        raise ValueError("swizzle produced no lanes")
    for source, index in order:
        if (index + 1) * elem_width > widths[source]:
            raise IndexError(
                f"lane {index} out of range for width {widths[source]}"
            )
    # (A one-byte result would make itemgetter return a bare int.)
    if elem_width % 8 or len(order) * elem_width == 8:
        return lambda args: gather_lanes(order, args, widths, elem_width)
    elem_bytes = elem_width // 8
    sizes = [width // 8 for width in widths]
    masks = [(1 << width) - 1 for width in widths]
    starts = [sum(sizes[:source]) for source in range(len(sizes))]
    gather = itemgetter(*(
        starts[source] + index * elem_bytes + offset
        for source, index in order
        for offset in range(elem_bytes)
    ))
    if len(widths) == 1:
        size, mask = sizes[0], masks[0]
        return lambda args: int.from_bytes(
            bytes(gather((args[0] & mask).to_bytes(size, "little"))), "little"
        )
    # Every pattern reads at most two sources.
    (mask0, mask1), (size0, size1) = masks[:2], sizes[:2]
    return lambda args: int.from_bytes(
        bytes(gather(
            (args[0] & mask0).to_bytes(size0, "little")
            + (args[1] & mask1).to_bytes(size1, "little")
        )),
        "little",
    )


def make_packed_applier(node: SNode, arg_widths: tuple[int, ...]):
    """A callable evaluating ``node`` on packed integer argument values.

    Arguments and result are plain ints (a whole register each).
    Malformed applications raise exactly where the object path raises,
    so candidate rejection is unchanged — values out of range are masked
    the same way :class:`BitVector` masks them.
    """
    if isinstance(node, SInput):
        raise ValueError("inputs have no arguments")
    if isinstance(node, SHole):
        raise ValueError(f"hole {node.name!r} must be instantiated first")
    if isinstance(node, SConstant):
        value = splat(node.value, node.lanes, node.elem_width)
        return lambda args: value
    if isinstance(node, SSlice):
        width = arg_widths[0]
        high = node.high
        return lambda args: slice_half(args[0], width, high)
    if isinstance(node, SConcat):
        high_width, low_width = arg_widths
        return lambda args: concat_pair(args[0], args[1], high_width, low_width)
    if isinstance(node, SSwizzle):
        return swizzle_applier(
            node.pattern, node.elem_width, node.amount, arg_widths
        )
    assert isinstance(node, SOp)
    return sop_applier(node.binding, node.values(), node.imm_values, arg_widths)


def make_packed_program(node: SNode) -> Callable[[Mapping[str, BitVector]], int]:
    """``node`` as one callable from input registers to its packed value:
    every node applied through :func:`make_packed_applier` at its
    children's widths, as the enumerator evaluates candidates.  Raises
    where building one of those appliers raises."""

    def leaf(n: SInput):
        name = n.name
        return lambda env: env[name].value

    def step(n: SNode, runs: list):
        apply = make_packed_applier(n, tuple(kid.bits for kid in n.children()))
        return lambda env: apply([run(env) for run in runs])

    return fold_program(node, leaf, step)


SWIZZLE_PATTERNS = (
    "interleave_full",
    "interleave_single",
    "deinterleave_single",
    "interleave_lo",
    "interleave_hi",
    "concat_lo",
    "concat_hi",
    "rotate_right",
)

# Arity and output size (relative to one input's lanes) per pattern.
SWIZZLE_SHAPES = {
    "interleave_full": (2, 2.0),
    "interleave_single": (1, 1.0),
    "deinterleave_single": (1, 1.0),
    "interleave_lo": (2, 1.0),
    "interleave_hi": (2, 1.0),
    "concat_lo": (2, 1.0),
    "concat_hi": (2, 1.0),
    "rotate_right": (1, 1.0),
}


# ----------------------------------------------------------------------
# Solver lowering (for CEGIS verification)
# ----------------------------------------------------------------------


def lower_node(node: SNode, args: list[smt.Term]) -> smt.Term:
    """The solver term of one node over its children's terms — the term
    twin of :func:`apply_node`."""
    if isinstance(node, SInput):
        raise ValueError("inputs have no arguments")
    if isinstance(node, SHole):
        # One symbolic element, replicated: the same scalar variable
        # HBroadcast lowers to, so a window whose constant was
        # rewritten to HBroadcast(name) and a template holding
        # SHole(name) constrain the *same* SMT variable.
        elem = smt.var(node.name, node.elem_width)
        hole: smt.Term = elem
        for _ in range(node.lanes - 1):
            hole = smt.apply_op("concat", [elem, hole])
        return hole
    if isinstance(node, SConstant):
        elem = smt.const(node.value, node.elem_width)
        result: smt.Term = elem
        for _ in range(node.lanes - 1):
            result = smt.apply_op("concat", [elem, result])
        return result
    if isinstance(node, SSlice):
        src = args[0]
        half = src.width // 2
        if node.high:
            return smt.apply_op("extract", [src], (src.width - 1, half))
        return smt.apply_op("extract", [src], (half - 1, 0))
    if isinstance(node, SConcat):
        return smt.apply_op("concat", args)
    if isinstance(node, SSwizzle):
        return _swizzle_term(node, args)
    assert isinstance(node, SOp)
    plan = _sop_plan(node.binding, node.values(), node.imm_values)
    bindings: dict[str, smt.Term] = {
        name: smt.const(imm.value, imm.width)
        for name, imm in plan.imm_env.items()
    }
    bindings.update(zip(plan.reg_names, args, strict=True))
    return substitute(semantics_to_term(plan.func, plan.params), bindings)


def program_to_term(node: SNode) -> smt.Term:
    """Lower a candidate to a symbolic term over its SInput variables."""
    return fold_program(node, lambda n: smt.var(n.name, n.bits), lower_node)


def _swizzle_term(node: SSwizzle, args: list[smt.Term]) -> smt.Term:
    width = node.elem_width

    def elem(term: smt.Term, index: int) -> smt.Term:
        return smt.apply_op(
            "extract", [term], ((index + 1) * width - 1, index * width)
        )

    lanes = args[0].width // width
    order = swizzle_order(node.pattern, lanes, node.amount)
    parts = [elem(args[source], index) for source, index in order]
    result = parts[0]
    for part in parts[1:]:
        result = smt.apply_op("concat", [part, result])
    return result
