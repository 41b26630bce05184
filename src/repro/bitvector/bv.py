"""The concrete bitvector value type.

A :class:`BitVector` is an immutable fixed-width two's-complement integer.
The operation set follows SMT-LIB QF_BV naming (``bvadd``, ``bvlshr``, ...)
so that the symbolic terms in :mod:`repro.smt` and the concrete evaluator
here stay in one-to-one correspondence, and adds the saturating and
widening operations that the vector ISAs in :mod:`repro.isa` require.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


def _mask(width: int) -> int:
    return (1 << width) - 1


class BitVector:
    """An immutable fixed-width two's-complement bitvector.

    ``value`` is always stored in its unsigned canonical form, i.e.
    ``0 <= value < 2**width``.  Use :attr:`signed` to read the
    two's-complement interpretation.

    Slotted, and written through the slot descriptors: the reference
    interpreters build one of these per lane per operation, so
    construction is on every evaluation path.  Equality, hashing and
    the error on assignment are those of a frozen dataclass.
    """

    __slots__ = ("value", "width")
    __match_args__ = ("value", "width")

    value: int
    width: int

    def __init__(self, value: int, width: int) -> None:
        if width <= 0:
            raise ValueError(f"bitvector width must be positive, got {width}")
        _set_value(self, value & ((1 << width) - 1))
        _set_width(self, width)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value and self.width == other.width
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __reduce__(self):
        return BitVector, (self.value, self.width)

    # ------------------------------------------------------------------
    # Interpretation
    # ------------------------------------------------------------------

    @property
    def unsigned(self) -> int:
        """The value read as an unsigned integer."""
        return self.value

    @property
    def signed(self) -> int:
        """The value read as a two's-complement signed integer."""
        if self.value >> (self.width - 1):
            return self.value - (1 << self.width)
        return self.value

    @property
    def smin(self) -> int:
        """Smallest signed value representable at this width."""
        return -(1 << (self.width - 1))

    @property
    def smax(self) -> int:
        """Largest signed value representable at this width."""
        return (1 << (self.width - 1)) - 1

    @property
    def umax(self) -> int:
        """Largest unsigned value representable at this width."""
        return _mask(self.width)

    def __repr__(self) -> str:
        return f"bv{self.width}({self.value:#x})"

    def __int__(self) -> int:
        return self.value

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _like(self, value: int) -> "BitVector":
        return BitVector(value, self.width)

    def _check_same_width(self, other: "BitVector", op: str) -> None:
        if self.width != other.width:
            raise ValueError(
                f"{op} requires equal widths, got {self.width} and {other.width}"
            )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def bvadd(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvadd")
        return self._like(self.value + other.value)

    def bvsub(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsub")
        return self._like(self.value - other.value)

    def bvmul(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvmul")
        return self._like(self.value * other.value)

    def bvneg(self) -> "BitVector":
        return self._like(-self.value)

    def bvudiv(self, other: "BitVector") -> "BitVector":
        """Unsigned division; division by zero yields all-ones (SMT-LIB)."""
        self._check_same_width(other, "bvudiv")
        if other.value == 0:
            return self._like(_mask(self.width))
        return self._like(self.value // other.value)

    def bvurem(self, other: "BitVector") -> "BitVector":
        """Unsigned remainder; remainder by zero yields the dividend."""
        self._check_same_width(other, "bvurem")
        if other.value == 0:
            return self
        return self._like(self.value % other.value)

    def bvsdiv(self, other: "BitVector") -> "BitVector":
        """Signed division truncating toward zero (SMT-LIB semantics)."""
        self._check_same_width(other, "bvsdiv")
        if other.value == 0:
            return self._like(1 if self.signed < 0 else _mask(self.width))
        quotient = abs(self.signed) // abs(other.signed)
        if (self.signed < 0) != (other.signed < 0):
            quotient = -quotient
        return self._like(quotient)

    def bvsrem(self, other: "BitVector") -> "BitVector":
        """Signed remainder with the sign of the dividend."""
        self._check_same_width(other, "bvsrem")
        if other.value == 0:
            return self
        remainder = abs(self.signed) % abs(other.signed)
        if self.signed < 0:
            remainder = -remainder
        return self._like(remainder)

    def bvabs(self) -> "BitVector":
        return self._like(abs(self.signed))

    # ------------------------------------------------------------------
    # Bitwise logic
    # ------------------------------------------------------------------

    def bvand(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvand")
        return self._like(self.value & other.value)

    def bvor(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvor")
        return self._like(self.value | other.value)

    def bvxor(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvxor")
        return self._like(self.value ^ other.value)

    def bvnot(self) -> "BitVector":
        return self._like(~self.value)

    # ------------------------------------------------------------------
    # Shifts and rotates (shift amount is an unsigned bitvector)
    # ------------------------------------------------------------------

    def bvshl(self, amount: "BitVector") -> "BitVector":
        shift = amount.unsigned
        if shift >= self.width:
            return self._like(0)
        return self._like(self.value << shift)

    def bvlshr(self, amount: "BitVector") -> "BitVector":
        shift = amount.unsigned
        if shift >= self.width:
            return self._like(0)
        return self._like(self.value >> shift)

    def bvashr(self, amount: "BitVector") -> "BitVector":
        shift = amount.unsigned
        if shift >= self.width:
            shift = self.width
        return self._like(self.signed >> shift)

    def bvrotl(self, amount: "BitVector") -> "BitVector":
        shift = amount.unsigned % self.width
        return self._like((self.value << shift) | (self.value >> (self.width - shift)))

    def bvrotr(self, amount: "BitVector") -> "BitVector":
        shift = amount.unsigned % self.width
        return self._like((self.value >> shift) | (self.value << (self.width - shift)))

    # ------------------------------------------------------------------
    # Comparisons (returning 1-bit bitvectors, SMT-LIB style predicates)
    # ------------------------------------------------------------------

    def _bool(self, condition: bool) -> "BitVector":
        return BitVector(1 if condition else 0, 1)

    def bveq(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bveq")
        return self._bool(self.value == other.value)

    def bvne(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvne")
        return self._bool(self.value != other.value)

    def bvult(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvult")
        return self._bool(self.unsigned < other.unsigned)

    def bvule(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvule")
        return self._bool(self.unsigned <= other.unsigned)

    def bvugt(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvugt")
        return self._bool(self.unsigned > other.unsigned)

    def bvuge(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvuge")
        return self._bool(self.unsigned >= other.unsigned)

    def bvslt(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvslt")
        return self._bool(self.signed < other.signed)

    def bvsle(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsle")
        return self._bool(self.signed <= other.signed)

    def bvsgt(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsgt")
        return self._bool(self.signed > other.signed)

    def bvsge(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsge")
        return self._bool(self.signed >= other.signed)

    # ------------------------------------------------------------------
    # Min / max
    # ------------------------------------------------------------------

    def bvsmin(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsmin")
        return self if self.signed <= other.signed else other

    def bvsmax(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsmax")
        return self if self.signed >= other.signed else other

    def bvumin(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvumin")
        return self if self.unsigned <= other.unsigned else other

    def bvumax(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvumax")
        return self if self.unsigned >= other.unsigned else other

    # ------------------------------------------------------------------
    # Width changes and slicing
    # ------------------------------------------------------------------

    def extract(self, high: int, low: int) -> "BitVector":
        """Bits ``high..low`` inclusive, SMT-LIB ``(_ extract high low)``."""
        if not 0 <= low <= high < self.width:
            raise ValueError(
                f"extract [{high}:{low}] out of range for width {self.width}"
            )
        return BitVector(self.value >> low, high - low + 1)

    def concat(self, low_part: "BitVector") -> "BitVector":
        """``self`` becomes the high bits, ``low_part`` the low bits."""
        return BitVector(
            (self.value << low_part.width) | low_part.value,
            self.width + low_part.width,
        )

    def zext(self, new_width: int) -> "BitVector":
        if new_width < self.width:
            raise ValueError(f"zext cannot shrink {self.width} -> {new_width}")
        return BitVector(self.value, new_width)

    def sext(self, new_width: int) -> "BitVector":
        if new_width < self.width:
            raise ValueError(f"sext cannot shrink {self.width} -> {new_width}")
        return BitVector(self.signed, new_width)

    def trunc(self, new_width: int) -> "BitVector":
        if new_width > self.width:
            raise ValueError(f"trunc cannot grow {self.width} -> {new_width}")
        return BitVector(self.value, new_width)

    def resize_unsigned(self, new_width: int) -> "BitVector":
        """Zero-extend or truncate to ``new_width``."""
        if new_width >= self.width:
            return self.zext(new_width)
        return self.trunc(new_width)

    # ------------------------------------------------------------------
    # Saturating arithmetic (vector-ISA staples)
    # ------------------------------------------------------------------

    def _saturate_signed(self, exact: int) -> "BitVector":
        return self._like(max(self.smin, min(self.smax, exact)))

    def _saturate_unsigned(self, exact: int) -> "BitVector":
        return self._like(max(0, min(self.umax, exact)))

    def bvsaddsat(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvsaddsat")
        return self._saturate_signed(self.signed + other.signed)

    def bvuaddsat(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvuaddsat")
        return self._saturate_unsigned(self.unsigned + other.unsigned)

    def bvssubsat(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvssubsat")
        return self._saturate_signed(self.signed - other.signed)

    def bvusubsat(self, other: "BitVector") -> "BitVector":
        self._check_same_width(other, "bvusubsat")
        return self._saturate_unsigned(self.unsigned - other.unsigned)

    def bvsshlsat(self, amount: "BitVector") -> "BitVector":
        """Signed saturating left shift: widen, shift, then clamp.

        The paper notes that vendor pseudocode omits the operand widening
        this operation needs; we model the corrected semantics here.
        """
        shift = amount.unsigned
        if shift >= self.width:
            shift = self.width
        return self._saturate_signed(self.signed << shift)

    def saturate_to_signed(self, new_width: int) -> "BitVector":
        """Narrow with signed saturation (pack-style)."""
        bound = BitVector(0, new_width)
        return BitVector(max(bound.smin, min(bound.smax, self.signed)), new_width)

    def saturate_to_unsigned(self, new_width: int) -> "BitVector":
        """Narrow with unsigned saturation (packus-style)."""
        bound = BitVector(0, new_width)
        return BitVector(max(0, min(bound.umax, self.signed)), new_width)

    # ------------------------------------------------------------------
    # Averaging / rounding helpers used by HVX- and NEON-style ops
    # ------------------------------------------------------------------

    def bvuavg(self, other: "BitVector", round_up: bool = False) -> "BitVector":
        self._check_same_width(other, "bvuavg")
        total = self.unsigned + other.unsigned + (1 if round_up else 0)
        return self._like(total >> 1)

    def bvsavg(self, other: "BitVector", round_up: bool = False) -> "BitVector":
        self._check_same_width(other, "bvsavg")
        total = self.signed + other.signed + (1 if round_up else 0)
        return self._like(total >> 1)

    # ------------------------------------------------------------------
    # Bit counting
    # ------------------------------------------------------------------

    def popcount(self) -> "BitVector":
        return self._like(bin(self.value).count("1"))

    def count_leading_zeros(self) -> "BitVector":
        leading = self.width - self.value.bit_length()
        return self._like(leading)


_set_value = BitVector.value.__set__
_set_width = BitVector.width.__set__


def bv(value: int, width: int) -> BitVector:
    """Shorthand constructor: ``bv(5, 8)`` is an 8-bit bitvector of value 5."""
    return BitVector(value, width)


def concat_many(parts: list[BitVector]) -> BitVector:
    """Concatenate ``parts`` with ``parts[0]`` as the most-significant part."""
    if not parts:
        raise ValueError("concat_many requires at least one part")
    result = parts[0]
    for part in parts[1:]:
        result = result.concat(part)
    return result
