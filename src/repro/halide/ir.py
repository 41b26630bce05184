"""Vectorised Halide IR: the synthesizer's input language.

This is the expression language Halide programs lower to after
vectorisation — integer vectors with casts, arithmetic, saturating ops,
slices, concatenations and windowed reductions (the ``reduce-add``
of the paper's Table 3).  Loads are opaque vector inputs: neither Rake
nor Hydride synthesizes memory instructions.

Every node carries ``(lanes, elem_width)``; signedness is expressed by
the operations, not the type, as in Halide IR proper.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.bitvector.bv import BitVector
from repro.bitvector.lanes import Vector, vector_from_elems
from repro.smt import terms as smt


@dataclass(frozen=True)
class HType:
    lanes: int
    elem_width: int

    @property
    def bits(self) -> int:
        return self.lanes * self.elem_width

    def __str__(self) -> str:
        return f"<{self.lanes} x i{self.elem_width}>"


def htype(lanes: int, elem_width: int) -> HType:
    return HType(lanes, elem_width)


@dataclass(frozen=True)
class HExpr:
    """Base class; subclasses define ``type`` and children."""

    def children(self) -> tuple["HExpr", ...]:
        return ()

    @property
    def type(self) -> HType:
        raise NotImplementedError

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def loads(self) -> dict[str, HType]:
        found: dict[str, HType] = {}
        for node in self.walk():
            if isinstance(node, HLoad):
                existing = found.setdefault(node.name, node.type)
                if existing != node.type:
                    raise ValueError(
                        f"load {node.name!r} used at two types: "
                        f"{existing} and {node.type}"
                    )
        return found

    def ops_used(self) -> set[str]:
        ops: set[str] = set()
        for node in self.walk():
            op = getattr(node, "op", None)
            if op is not None:
                ops.add(op)
            elif isinstance(node, HCast):
                ops.add(node.kind)
            elif isinstance(node, HReduceAdd):
                ops.add("reduce_add")
        return ops

    def depth(self) -> int:
        kids = self.children()
        if not kids:
            return 0
        return 1 + max(k.depth() for k in kids)

    def size(self) -> int:
        return 1 + sum(k.size() for k in self.children())


@dataclass(frozen=True)
class HLoad(HExpr):
    """An opaque vector input (a vectorised load after scheduling)."""

    name: str
    lanes: int
    elem_width: int
    # Metadata for the machine model; irrelevant to synthesis semantics.
    stride: int = 1

    @property
    def type(self) -> HType:
        return HType(self.lanes, self.elem_width)


@dataclass(frozen=True)
class HConst(HExpr):
    """A constant splat across all lanes."""

    value: int
    lanes: int
    elem_width: int

    @property
    def type(self) -> HType:
        return HType(self.lanes, self.elem_width)


@dataclass(frozen=True)
class HBroadcast(HExpr):
    """A runtime scalar broadcast into every lane (named scalar input)."""

    name: str
    lanes: int
    elem_width: int

    @property
    def type(self) -> HType:
        return HType(self.lanes, self.elem_width)


# Binary operations; names shared with the bitvector substrate.
H_BINOPS = {
    "add": "bvadd",
    "sub": "bvsub",
    "mul": "bvmul",
    "min_s": "bvsmin",
    "max_s": "bvsmax",
    "min_u": "bvumin",
    "max_u": "bvumax",
    "and": "bvand",
    "or": "bvor",
    "xor": "bvxor",
    "shl": "bvshl",
    "lshr": "bvlshr",
    "ashr": "bvashr",
    "adds": "bvsaddsat",
    "addus": "bvuaddsat",
    "subs": "bvssubsat",
    "subus": "bvusubsat",
    "avg_u": "bvuavg_round",
    "havg_u": "bvuavg",
    "havg_s": "bvsavg",
}


@dataclass(frozen=True)
class HBin(HExpr):
    op: str
    left: HExpr
    right: HExpr

    def __post_init__(self) -> None:
        if self.op not in H_BINOPS:
            raise ValueError(f"unknown Halide binop {self.op!r}")
        if self.left.type != self.right.type:
            raise ValueError(
                f"{self.op}: operand types {self.left.type} vs {self.right.type}"
            )

    def children(self) -> tuple[HExpr, ...]:
        return (self.left, self.right)

    @property
    def type(self) -> HType:
        return self.left.type


H_CMPOPS = {"eq": "bveq", "lt_s": "bvslt", "lt_u": "bvult", "gt_s": "bvsgt", "gt_u": "bvugt"}


@dataclass(frozen=True)
class HCmp(HExpr):
    """Lane-wise comparison; produces 1-bit lanes."""

    op: str
    left: HExpr
    right: HExpr

    def __post_init__(self) -> None:
        if self.op not in H_CMPOPS:
            raise ValueError(f"unknown Halide cmp {self.op!r}")
        if self.left.type != self.right.type:
            raise ValueError("cmp operand types differ")

    def children(self) -> tuple[HExpr, ...]:
        return (self.left, self.right)

    @property
    def type(self) -> HType:
        return HType(self.left.type.lanes, 1)


@dataclass(frozen=True)
class HSelect(HExpr):
    cond: HExpr  # 1-bit lanes
    then_expr: HExpr
    else_expr: HExpr

    def __post_init__(self) -> None:
        if self.then_expr.type != self.else_expr.type:
            raise ValueError("select branch types differ")
        if self.cond.type.lanes != self.then_expr.type.lanes:
            raise ValueError("select condition lane count differs")

    def children(self) -> tuple[HExpr, ...]:
        return (self.cond, self.then_expr, self.else_expr)

    @property
    def type(self) -> HType:
        return self.then_expr.type


H_CASTS = ("sext", "zext", "trunc", "sat_s", "sat_u")


@dataclass(frozen=True)
class HCast(HExpr):
    kind: str
    src: HExpr
    new_elem_width: int

    def __post_init__(self) -> None:
        if self.kind not in H_CASTS:
            raise ValueError(f"unknown cast {self.kind!r}")

    def children(self) -> tuple[HExpr, ...]:
        return (self.src,)

    @property
    def type(self) -> HType:
        return HType(self.src.type.lanes, self.new_elem_width)


@dataclass(frozen=True)
class HSlice(HExpr):
    """Lanes ``[start, start + lanes)`` of ``src`` (Table 3's ``%0[0:32]``)."""

    src: HExpr
    start: int
    lanes: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.start + self.lanes > self.src.type.lanes:
            raise ValueError("slice out of range")

    def children(self) -> tuple[HExpr, ...]:
        return (self.src,)

    @property
    def type(self) -> HType:
        return HType(self.lanes, self.src.type.elem_width)


@dataclass(frozen=True)
class HConcat(HExpr):
    parts: tuple[HExpr, ...]

    def __post_init__(self) -> None:
        widths = {p.type.elem_width for p in self.parts}
        if len(widths) != 1:
            raise ValueError("concat parts have differing element widths")

    def children(self) -> tuple[HExpr, ...]:
        return self.parts

    @property
    def type(self) -> HType:
        return HType(
            sum(p.type.lanes for p in self.parts), self.parts[0].type.elem_width
        )


@dataclass(frozen=True)
class HReduceAdd(HExpr):
    """Sum each group of ``factor`` adjacent lanes (windowed reduction)."""

    src: HExpr
    factor: int

    def __post_init__(self) -> None:
        if self.src.type.lanes % self.factor:
            raise ValueError("reduce_add factor must divide lane count")

    def children(self) -> tuple[HExpr, ...]:
        return (self.src,)

    @property
    def type(self) -> HType:
        return HType(self.src.type.lanes // self.factor, self.src.type.elem_width)


@dataclass(frozen=True)
class HShuffle(HExpr):
    """General lane shuffle by index list (the baseline's swizzle form)."""

    src: HExpr
    indices: tuple[int, ...]

    def children(self) -> tuple[HExpr, ...]:
        return (self.src,)

    @property
    def type(self) -> HType:
        return HType(len(self.indices), self.src.type.elem_width)


# ----------------------------------------------------------------------
# Interpreter
# ----------------------------------------------------------------------


def interpret(expr: HExpr, env: Mapping[str, BitVector]) -> BitVector:
    """Evaluate with loads and broadcast scalars bound in ``env``.

    Loads bind the full vector register; broadcasts bind one element.
    """
    return node_values(expr, env)[id(expr)]


def node_values(expr: HExpr, env: Mapping[str, BitVector]) -> dict[int, BitVector]:
    """The value of every node of ``expr`` under ``env``, keyed by the
    node's identity — one evaluation of the whole window, whose root
    entry is :func:`interpret`'s result."""
    cache: dict[int, BitVector] = {}

    def run(node: HExpr) -> BitVector:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        result = _eval(node)
        cache[id(node)] = result
        return result

    def _eval(node: HExpr) -> BitVector:
        if isinstance(node, HLoad):
            value = env[node.name]
            if value.width != node.type.bits:
                raise ValueError(
                    f"load {node.name!r}: bound width {value.width}, "
                    f"expected {node.type.bits}"
                )
            return value
        if isinstance(node, HConst):
            elem = BitVector(node.value, node.elem_width)
            return vector_from_elems([elem] * node.lanes).bits
        if isinstance(node, HBroadcast):
            elem = env[node.name]
            if elem.width != node.elem_width:
                raise ValueError(f"broadcast {node.name!r} width mismatch")
            return vector_from_elems([elem] * node.lanes).bits
        if isinstance(node, HBin):
            left = Vector(run(node.left), node.type.elem_width)
            right = Vector(run(node.right), node.type.elem_width)
            method = H_BINOPS[node.op]
            out = []
            for x, y in zip(left.elems(), right.elems()):
                if method == "bvuavg_round":
                    out.append(x.bvuavg(y, round_up=True))
                else:
                    out.append(getattr(x, method)(y))
            return vector_from_elems(out).bits
        if isinstance(node, HCmp):
            left = Vector(run(node.left), node.left.type.elem_width)
            right = Vector(run(node.right), node.left.type.elem_width)
            method = H_CMPOPS[node.op]
            out = [getattr(x, method)(y) for x, y in zip(left.elems(), right.elems())]
            return vector_from_elems(out).bits
        if isinstance(node, HSelect):
            cond = Vector(run(node.cond), 1)
            then_vec = Vector(run(node.then_expr), node.type.elem_width)
            else_vec = Vector(run(node.else_expr), node.type.elem_width)
            out = [
                t if c.value else e
                for c, t, e in zip(cond.elems(), then_vec.elems(), else_vec.elems())
            ]
            return vector_from_elems(out).bits
        if isinstance(node, HCast):
            src = Vector(run(node.src), node.src.type.elem_width)
            width = node.new_elem_width
            table = {
                "sext": lambda x: x.sext(width) if width >= x.width else x.trunc(width),
                "zext": lambda x: x.zext(width) if width >= x.width else x.trunc(width),
                "trunc": lambda x: x.trunc(width),
                "sat_s": lambda x: x.saturate_to_signed(width),
                "sat_u": lambda x: x.saturate_to_unsigned(width),
            }
            return src.map_lanes(table[node.kind]).bits
        if isinstance(node, HSlice):
            src = Vector(run(node.src), node.type.elem_width)
            out = [src.elem(node.start + i) for i in range(node.lanes)]
            return vector_from_elems(out).bits
        if isinstance(node, HConcat):
            parts = [run(p) for p in node.parts]
            result = parts[0]
            for part in parts[1:]:
                result = part.concat(result)
            return result
        if isinstance(node, HReduceAdd):
            src = Vector(run(node.src), node.type.elem_width)
            out = []
            for group in range(node.type.lanes):
                total = src.elem(group * node.factor)
                for k in range(1, node.factor):
                    total = total.bvadd(src.elem(group * node.factor + k))
                out.append(total)
            return vector_from_elems(out).bits
        if isinstance(node, HShuffle):
            src = Vector(run(node.src), node.type.elem_width)
            return vector_from_elems([src.elem(i) for i in node.indices]).bits
        raise TypeError(f"unknown Halide IR node {type(node).__name__}")

    run(expr)
    return cache


# ----------------------------------------------------------------------
# Solver lowering (the CEGIS specification)
# ----------------------------------------------------------------------


def to_term(expr: HExpr) -> smt.Term:
    """Lower to a symbolic term with loads/broadcasts as free variables."""
    cache: dict[int, smt.Term] = {}

    def elem(term: smt.Term, index: int, width: int) -> smt.Term:
        return smt.apply_op(
            "extract", [term], ((index + 1) * width - 1, index * width)
        )

    def concat_elems(parts: list[smt.Term]) -> smt.Term:
        result = parts[0]
        for part in parts[1:]:
            result = smt.apply_op("concat", [part, result])
        return result

    def run(node: HExpr) -> smt.Term:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        result = _lower(node)
        cache[id(node)] = result
        return result

    def _lower(node: HExpr) -> smt.Term:
        if isinstance(node, HLoad):
            return smt.var(node.name, node.type.bits)
        if isinstance(node, HConst):
            one = smt.const(node.value, node.elem_width)
            return concat_elems([one] * node.lanes)
        if isinstance(node, HBroadcast):
            scalar = smt.var(node.name, node.elem_width)
            return concat_elems([scalar] * node.lanes)
        if isinstance(node, (HBin, HCmp)):
            width = node.left.type.elem_width
            left, right = run(node.left), run(node.right)
            op = H_BINOPS[node.op] if isinstance(node, HBin) else H_CMPOPS[node.op]
            parts = [
                smt.apply_op(op, [elem(left, i, width), elem(right, i, width)])
                for i in range(node.left.type.lanes)
            ]
            return concat_elems(parts)
        if isinstance(node, HSelect):
            cond, then_t, else_t = (
                run(node.cond),
                run(node.then_expr),
                run(node.else_expr),
            )
            width = node.type.elem_width
            parts = [
                smt.apply_op(
                    "ite",
                    [elem(cond, i, 1), elem(then_t, i, width), elem(else_t, i, width)],
                )
                for i in range(node.type.lanes)
            ]
            return concat_elems(parts)
        if isinstance(node, HCast):
            src = run(node.src)
            old = node.src.type.elem_width
            new = node.new_elem_width
            table = {
                "sext": "sext" if new >= old else "trunc",
                "zext": "zext" if new >= old else "trunc",
                "trunc": "trunc",
                "sat_s": "saturate_to_signed",
                "sat_u": "saturate_to_unsigned",
            }
            parts = [
                smt.apply_op(table[node.kind], [elem(src, i, old)], (new,))
                for i in range(node.type.lanes)
            ]
            return concat_elems(parts)
        if isinstance(node, HSlice):
            src = run(node.src)
            width = node.type.elem_width
            low = node.start * width
            return smt.apply_op(
                "extract", [src], (low + node.lanes * width - 1, low)
            )
        if isinstance(node, HConcat):
            parts = [run(p) for p in node.parts]
            result = parts[0]
            for part in parts[1:]:
                result = smt.apply_op("concat", [part, result])
            return result
        if isinstance(node, HReduceAdd):
            src = run(node.src)
            width = node.type.elem_width
            parts = []
            for group in range(node.type.lanes):
                total = elem(src, group * node.factor, width)
                for k in range(1, node.factor):
                    total = smt.apply_op(
                        "bvadd", [total, elem(src, group * node.factor + k, width)]
                    )
                parts.append(total)
            return concat_elems(parts)
        if isinstance(node, HShuffle):
            src = run(node.src)
            width = node.type.elem_width
            return concat_elems([elem(src, i, width) for i in node.indices])
        raise TypeError(f"unknown Halide IR node {type(node).__name__}")

    return run(expr)
