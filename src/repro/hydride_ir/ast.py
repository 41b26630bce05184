"""Bitvector expression AST for Hydride IR (paper Fig. 4).

The value language is expression-shaped: an instruction's semantics is one
expression producing the output register.  Loops appear as ``ForConcat``
nodes — "concatenate the body evaluated at each iteration" — which directly
model the canonical two-level lane/element loop nest the paper requires.
Iteration 0 produces the least-significant slice, matching the little-endian
lane order of the vendor manuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hydride_ir.indexexpr import IConst, IndexExpr


@dataclass(frozen=True)
class BvExpr:
    """Base class for bitvector-valued expressions."""

    def children(self) -> tuple["BvExpr", ...]:
        return ()

    def index_exprs(self) -> tuple[IndexExpr, ...]:
        """The index expressions directly attached to this node."""
        return ()

    def walk(self):
        """Yield every node in the expression tree (pre-order)."""
        stack: list[BvExpr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


@dataclass(frozen=True)
class BvVar(BvExpr):
    """Reference to an input register by name."""

    name: str


@dataclass(frozen=True)
class BvConst(BvExpr):
    """A literal whose value and width are index expressions.

    Shift factors, masks and round constants in vendor pseudocode become
    ``BvConst`` nodes; the Similarity Checking Engine abstracts their value
    expressions into symbolic parameters.
    """

    value: IndexExpr
    width: IndexExpr

    def index_exprs(self) -> tuple[IndexExpr, ...]:
        return (self.value, self.width)


@dataclass(frozen=True)
class BvBroadcastConst(BvExpr):
    """A constant replicated into every element (splat)."""

    value: IndexExpr
    elem_width: IndexExpr
    num_elems: IndexExpr

    def index_exprs(self) -> tuple[IndexExpr, ...]:
        return (self.value, self.elem_width, self.num_elems)


@dataclass(frozen=True)
class BvExtract(BvExpr):
    """Slice ``[low, low + width)`` of ``src``.

    Expressing the high bound as ``low + width - 1`` implicitly (rather than
    a second free expression) is the representation choice the paper relies
    on when refining access patterns with holes.
    """

    src: BvExpr
    low: IndexExpr
    width: IndexExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.src,)

    def index_exprs(self) -> tuple[IndexExpr, ...]:
        return (self.low, self.width)


@dataclass(frozen=True)
class BvBinOp(BvExpr):
    """Same-width binary operation (op names match :mod:`repro.smt.terms`)."""

    op: str
    left: BvExpr
    right: BvExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class BvUnOp(BvExpr):
    op: str
    operand: BvExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class BvCmp(BvExpr):
    """Comparison producing a 1-bit value."""

    op: str
    left: BvExpr
    right: BvExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class BvCast(BvExpr):
    """Width change: zext / sext / trunc / saturate_to_signed / _unsigned."""

    op: str
    operand: BvExpr
    new_width: IndexExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.operand,)

    def index_exprs(self) -> tuple[IndexExpr, ...]:
        return (self.new_width,)


@dataclass(frozen=True)
class BvIte(BvExpr):
    cond: BvExpr
    then_expr: BvExpr
    else_expr: BvExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.cond, self.then_expr, self.else_expr)


@dataclass(frozen=True)
class BvConcat(BvExpr):
    """Explicit concatenation; ``parts[0]`` is least significant.

    Parsers emit ``BvConcat`` for pseudocode they unroll into per-element
    assignments (``dst[15:0] := ...; dst[31:16] := ...``); the loop
    rerolling transform turns it back into a :class:`ForConcat`.
    """

    parts: tuple[BvExpr, ...]

    def children(self) -> tuple[BvExpr, ...]:
        return self.parts


@dataclass(frozen=True)
class ForConcat(BvExpr):
    """``concat_{var = count-1 .. 0} body(var)`` with iteration 0 least
    significant.  The canonical instruction form is two nested ForConcats:
    outer over lanes, inner over elements within a lane."""

    var: str
    count: IndexExpr
    body: BvExpr

    def children(self) -> tuple[BvExpr, ...]:
        return (self.body,)

    def index_exprs(self) -> tuple[IndexExpr, ...]:
        return (self.count,)


@dataclass(frozen=True)
class Input:
    """A declared input register (or scalar) of a semantics function."""

    name: str
    width: IndexExpr
    is_immediate: bool = False


@dataclass(frozen=True)
class SemanticsFunction:
    """The operational semantics Phi(I, k) of one machine instruction.

    ``params`` maps parameter name to its concrete value for this
    instruction; leaving parameters symbolic (ignoring the values) gives the
    parameterized semantics Sigma(I, alpha).
    """

    name: str
    inputs: tuple[Input, ...]
    params: dict[str, int]
    body: BvExpr
    output_width: IndexExpr = field(default_factory=lambda: IConst(0))

    def param_values(self) -> dict[str, int]:
        return dict(self.params)

    def with_body(self, body: BvExpr) -> "SemanticsFunction":
        return SemanticsFunction(
            self.name, self.inputs, dict(self.params), body, self.output_width
        )
