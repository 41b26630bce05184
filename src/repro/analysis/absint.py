"""Abstract interpretation of Hydride IR semantics functions.

Two cooperating lattices over fixed-width bitvectors:

* **known bits** — per-bit 0/1/unknown, stored as a pair of masks
  (``zeros``/``ones``) over the value's width;
* **value ranges** — an unsigned interval ``[umin, umax]`` and a signed
  interval ``[smin, smax]`` (two's complement).

The two refine each other on construction (:func:`make`): known bits
clamp the ranges, a constant range pins every bit, and the shared high
bits of ``umin``/``umax`` become known bits.  Vector values are plain
wide :class:`AbsValue` objects, built lane by lane with
:func:`pack_lanes`, so packed/vector precision needs no separate domain.

**Soundness contract.**  For every expression ``e`` and every concrete
environment on which ``e`` evaluates without error, the concrete result
``v`` satisfies ``abstract(e).contains(v.value)`` — i.e. abstract
evaluation over-approximates concrete evaluation.  The one consumer,
the semantic lint rules (``sem/*``, :mod:`repro.analysis.semantic_check`),
relies only on this direction and never assumes precision.

Transfer functions live in patchable tables (:data:`BINARY_TRANSFERS`,
:data:`UNARY_TRANSFERS`, :data:`CMP_TRANSFERS`, :data:`CAST_TRANSFERS`)
keyed by the SMT-LIB op names of :class:`repro.bitvector.bv.BitVector`,
so the bug-injection tests can mutate one transfer at a time and assert
the soundness property test notices.

**Widening.**  The only recursive construct in the IR is ``ForConcat``.
Loops up to :data:`UNROLL_LIMIT` iterations are evaluated exactly (the
whole generated corpus fits); iterator-independent bodies are evaluated
once and replicated regardless of count; anything longer widens the
remaining iterations to top — the classic jump-to-top widening that
keeps the engine a single pass.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

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
from repro.hydride_ir.interp import (
    SemanticsError,
    compute_width,
    resolved_input_widths,
)

# ForConcat loops longer than this are not fully unrolled; their tail
# iterations widen to top (see module docstring).
UNROLL_LIMIT = 128


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class AbsValue:
    """One abstract bitvector: known bits plus unsigned/signed ranges.

    Construct through :func:`make` (or the :func:`top` / :func:`const` /
    :func:`from_ints` shorthands), which normalises the components
    against each other; the raw constructor performs no refinement.
    """

    width: int
    zeros: int  # mask of bits known to be 0
    ones: int  # mask of bits known to be 1
    umin: int
    umax: int
    smin: int
    smax: int

    # -- predicates ----------------------------------------------------

    def contains(self, value: int) -> bool:
        """True when concrete ``value`` (unsigned form) is represented."""
        value &= _mask(self.width)
        if value & self.zeros:
            return False
        if (value & self.ones) != self.ones:
            return False
        if not self.umin <= value <= self.umax:
            return False
        signed = value - (1 << self.width) if value >> (self.width - 1) else value
        return self.smin <= signed <= self.smax

    def is_const(self) -> bool:
        return self.umin == self.umax

    def const_value(self) -> int | None:
        return self.umin if self.umin == self.umax else None

    # -- lattice -------------------------------------------------------

    def join(self, other: "AbsValue") -> "AbsValue":
        """Least upper bound: represents everything either side does."""
        if self.width != other.width:
            raise ValueError(
                f"join requires equal widths, got {self.width} and {other.width}"
            )
        return make(
            self.width,
            zeros=self.zeros & other.zeros,
            ones=self.ones & other.ones,
            umin=min(self.umin, other.umin),
            umax=max(self.umax, other.umax),
            smin=min(self.smin, other.smin),
            smax=max(self.smax, other.smax),
        )


def make(
    width: int,
    zeros: int = 0,
    ones: int = 0,
    umin: int = 0,
    umax: int | None = None,
    smin: int | None = None,
    smax: int | None = None,
) -> AbsValue:
    """Build a normalised :class:`AbsValue`.

    The refinement loop propagates information between the lattices:
    known bits tighten both ranges, each range tightens the other when
    the value's sign is determined, and the common high-bit prefix of
    the unsigned bounds becomes known bits.
    """
    if width <= 0:
        raise ValueError(f"abstract value width must be positive, got {width}")
    mask = _mask(width)
    half = 1 << (width - 1)
    zeros &= mask
    ones &= mask
    umin = max(umin, 0)
    umax = mask if umax is None else min(umax, mask)
    smin = -half if smin is None else max(smin, -half)
    smax = half - 1 if smax is None else min(smax, half - 1)

    for _ in range(2):
        # Known bits -> unsigned range.
        umin = max(umin, ones)
        umax = min(umax, mask & ~zeros)
        # Unsigned range -> signed range (when the sign is decided).
        if umax < half:
            smin, smax = max(smin, umin), min(smax, umax)
        elif umin >= half:
            smin = max(smin, umin - (mask + 1))
            smax = min(smax, umax - (mask + 1))
        # Signed range -> unsigned range.
        if smin >= 0:
            umin, umax = max(umin, smin), min(umax, smax)
        elif smax < 0:
            umin = max(umin, smin + mask + 1)
            umax = min(umax, smax + mask + 1)
        # Signed range -> sign bit.
        if smax < 0:
            ones |= half
        elif smin >= 0:
            zeros |= half
        # Unsigned range -> shared high-bit prefix.
        if umin <= umax:
            diff = umin ^ umax
            if diff == 0:
                ones |= umin
                zeros |= mask & ~umin
            else:
                high = mask & ~_mask(diff.bit_length())
                ones |= umin & high
                zeros |= ~umin & high
    return AbsValue(width, zeros, ones, umin, umax, smin, smax)


def top(width: int) -> AbsValue:
    """The unconstrained value of ``width`` bits."""
    return make(width)


def const(value: int, width: int) -> AbsValue:
    """The singleton abstract value of a concrete constant."""
    value &= _mask(width)
    return make(width, umin=value, umax=value)


def from_ints(values, width: int) -> AbsValue:
    """The tightest element covering every value in ``values`` (a hull)."""
    result: AbsValue | None = None
    for value in values:
        element = const(value, width)
        result = element if result is None else result.join(element)
    if result is None:
        raise ValueError("from_ints requires at least one value")
    return result


def provably_disagrees(a: AbsValue, b: AbsValue) -> bool:
    """True when no concrete value is represented by both ``a`` and ``b``.

    Used contrapositively everywhere: if two expressions are equal on
    some input, their abstract values intersect; disjointness proves
    they differ on *every* input the abstractions cover.
    """
    if a.width != b.width:
        raise ValueError(
            f"disagreement check requires equal widths, got {a.width} and {b.width}"
        )
    if (a.ones & b.zeros) or (a.zeros & b.ones):
        return True
    if a.umax < b.umin or b.umax < a.umin:
        return True
    return a.smax < b.smin or b.smax < a.smin


def pack_lanes(lanes: list[AbsValue]) -> AbsValue:
    """Concatenate per-lane values (least-significant lane first)."""
    result = lanes[0]
    for lane in lanes[1:]:
        result = _concat(lane, result)
    return result


# ----------------------------------------------------------------------
# Transfer functions
# ----------------------------------------------------------------------


def _trailing_known(a: AbsValue) -> int:
    """Number of consecutive known bits starting at bit 0."""
    unknown = ~(a.zeros | a.ones) & _mask(a.width)
    if unknown == 0:
        return a.width
    return (unknown & -unknown).bit_length() - 1


def _trailing_zeros(a: AbsValue) -> int:
    """Number of consecutive bits known to be 0 starting at bit 0."""
    nonzero = ~a.zeros & _mask(a.width)
    if nonzero == 0:
        return a.width
    return (nonzero & -nonzero).bit_length() - 1


def _wrap_unsigned(lo: int, hi: int, width: int) -> tuple[int, int]:
    """Map an exact integer interval onto the width's unsigned range."""
    mask = _mask(width)
    if 0 <= lo and hi <= mask:
        return lo, hi
    if lo > mask and hi <= 2 * mask + 1:
        return lo - mask - 1, hi - mask - 1
    if hi < 0 and lo >= -(mask + 1):
        return lo + mask + 1, hi + mask + 1
    return 0, mask


def _wrap_signed(lo: int, hi: int, width: int) -> tuple[int, int]:
    """Map an exact integer interval onto the width's signed range."""
    half = 1 << (width - 1)
    if -half <= lo and hi < half:
        return lo, hi
    if lo >= half and hi < 3 * half:
        return lo - 2 * half, hi - 2 * half
    if hi < -half and lo >= -3 * half:
        return lo + 2 * half, hi + 2 * half
    return -half, half - 1


def _known_low_bits(a: AbsValue, b: AbsValue, combine) -> tuple[int, int]:
    """(zeros, ones) for the low bits fully determined by both operands."""
    k = min(_trailing_known(a), _trailing_known(b))
    if k == 0:
        return 0, 0
    low = combine(a.ones & _mask(k), b.ones & _mask(k)) & _mask(k)
    return ~low & _mask(k), low


def _add(a: AbsValue, b: AbsValue) -> AbsValue:
    umin, umax = _wrap_unsigned(a.umin + b.umin, a.umax + b.umax, a.width)
    smin, smax = _wrap_signed(a.smin + b.smin, a.smax + b.smax, a.width)
    zeros, ones = _known_low_bits(a, b, lambda x, y: x + y)
    return make(a.width, zeros, ones, umin, umax, smin, smax)


def _sub(a: AbsValue, b: AbsValue) -> AbsValue:
    umin, umax = _wrap_unsigned(a.umin - b.umax, a.umax - b.umin, a.width)
    smin, smax = _wrap_signed(a.smin - b.smax, a.smax - b.smin, a.width)
    zeros, ones = _known_low_bits(a, b, lambda x, y: x - y)
    return make(a.width, zeros, ones, umin, umax, smin, smax)


def _mul(a: AbsValue, b: AbsValue) -> AbsValue:
    mask = _mask(a.width)
    umin, umax = 0, mask
    if a.umax * b.umax <= mask:
        umin, umax = a.umin * b.umin, a.umax * b.umax
    smin, smax = -(mask + 1) // 2, mask // 2
    corners = [
        x * y for x in (a.smin, a.smax) for y in (b.smin, b.smax)
    ]
    if -(mask + 1) // 2 <= min(corners) and max(corners) <= mask // 2:
        smin, smax = min(corners), max(corners)
    zeros, ones = _known_low_bits(a, b, lambda x, y: x * y)
    # The product's trailing zeros accumulate from both factors even when
    # the remaining bits are unknown.
    tz = min(_trailing_zeros(a) + _trailing_zeros(b), a.width)
    zeros |= _mask(tz)
    return make(a.width, zeros, ones, umin, umax, smin, smax)


def _neg(a: AbsValue) -> AbsValue:
    return _sub(const(0, a.width), a)


def _and(a: AbsValue, b: AbsValue) -> AbsValue:
    return make(
        a.width,
        zeros=a.zeros | b.zeros,
        ones=a.ones & b.ones,
        umax=min(a.umax, b.umax),
    )


def _bitlength_bound(a: AbsValue, b: AbsValue) -> int:
    """Upper bound for any combination of bits drawn from ``a`` and ``b``."""
    bits = max(a.umax.bit_length(), b.umax.bit_length())
    return _mask(a.width) & _mask(bits)


def _or(a: AbsValue, b: AbsValue) -> AbsValue:
    return make(
        a.width,
        zeros=a.zeros & b.zeros,
        ones=a.ones | b.ones,
        umin=max(a.umin, b.umin),
        umax=_bitlength_bound(a, b),
    )


def _xor(a: AbsValue, b: AbsValue) -> AbsValue:
    return make(
        a.width,
        zeros=(a.zeros & b.zeros) | (a.ones & b.ones),
        ones=(a.ones & b.zeros) | (a.zeros & b.ones),
        umax=_bitlength_bound(a, b),
    )


def _not(a: AbsValue) -> AbsValue:
    mask = _mask(a.width)
    return make(
        a.width,
        zeros=a.ones,
        ones=a.zeros,
        umin=mask - a.umax,
        umax=mask - a.umin,
        smin=-a.smax - 1,
        smax=-a.smin - 1,
    )


def _shl(a: AbsValue, amount: AbsValue) -> AbsValue:
    width = a.width
    mask = _mask(width)
    k = amount.const_value()
    if k is not None:
        if k >= width:
            return const(0, width)
        kwargs = {
            "zeros": ((a.zeros << k) | _mask(k)) & mask,
            "ones": (a.ones << k) & mask,
        }
        if a.umax << k <= mask:
            kwargs["umin"] = a.umin << k
            kwargs["umax"] = a.umax << k
        return make(width, **kwargs)
    kmin = min(amount.umin, width)
    kmax = min(amount.umax, width)
    kwargs = {"zeros": _mask(kmin)}
    if kmax < width and a.umax << kmax <= mask:
        kwargs["umin"] = a.umin << kmin
        kwargs["umax"] = a.umax << kmax
    return make(width, **kwargs)


def _lshr(a: AbsValue, amount: AbsValue) -> AbsValue:
    width = a.width
    k = amount.const_value()
    if k is not None:
        if k >= width:
            return const(0, width)
        high = (_mask(k) << (width - k)) & _mask(width)
        return make(
            width,
            zeros=(a.zeros >> k) | high,
            ones=a.ones >> k,
            umin=a.umin >> k,
            umax=a.umax >> k,
        )
    kmin = min(amount.umin, width)
    kmax = amount.umax
    if kmin >= width:
        return const(0, width)
    high = (_mask(kmin) << (width - kmin)) & _mask(width)
    return make(
        width,
        zeros=high,
        umin=0 if kmax >= width else a.umin >> kmax,
        umax=a.umax >> kmin,
    )


def _ashr(a: AbsValue, amount: AbsValue) -> AbsValue:
    width = a.width
    shifts = {min(amount.umin, width), min(amount.umax, width)}
    corners = [x >> s for x in (a.smin, a.smax) for s in shifts]
    kwargs = {"smin": min(corners), "smax": max(corners)}
    k = amount.const_value()
    if k is not None:
        k = min(k, width)
        half = 1 << (width - 1)
        zeros = (a.zeros >> k) & _mask(width - k) if k < width else 0
        ones = (a.ones >> k) & _mask(width - k) if k < width else 0
        if k > 0:
            high = (_mask(k) << (width - k)) & _mask(width)
            if a.zeros & half:  # sign known 0: high bits fill with 0
                zeros |= high
            elif a.ones & half:  # sign known 1: high bits fill with 1
                ones |= high
        kwargs["zeros"] = zeros
        kwargs["ones"] = ones
    return make(width, **kwargs)


def _rot_masks(a: AbsValue, k: int, left: bool) -> tuple[int, int]:
    width = a.width
    mask = _mask(width)
    if not left:
        k = (width - k) % width
    zeros = ((a.zeros << k) | (a.zeros >> (width - k))) & mask if k else a.zeros
    ones = ((a.ones << k) | (a.ones >> (width - k))) & mask if k else a.ones
    return zeros, ones


def _rotl(a: AbsValue, amount: AbsValue) -> AbsValue:
    k = amount.const_value()
    if k is None:
        return top(a.width)
    zeros, ones = _rot_masks(a, k % a.width, left=True)
    return make(a.width, zeros, ones)


def _rotr(a: AbsValue, amount: AbsValue) -> AbsValue:
    k = amount.const_value()
    if k is None:
        return top(a.width)
    zeros, ones = _rot_masks(a, k % a.width, left=False)
    return make(a.width, zeros, ones)


def _udiv(a: AbsValue, b: AbsValue) -> AbsValue:
    mask = _mask(a.width)
    if b.const_value() == 0:
        return const(mask, a.width)  # SMT-LIB: division by zero is all-ones
    if b.umin == 0:
        return make(a.width, umin=a.umin // max(b.umax, 1), umax=mask)
    return make(a.width, umin=a.umin // b.umax, umax=a.umax // b.umin)


def _urem(a: AbsValue, b: AbsValue) -> AbsValue:
    if b.const_value() == 0:
        return a  # SMT-LIB: remainder by zero is the dividend
    if b.umin == 0:
        return make(a.width, umax=a.umax)
    return make(a.width, umax=min(a.umax, b.umax - 1))


def _sdiv(a: AbsValue, b: AbsValue) -> AbsValue:
    return top(a.width)


def _srem(a: AbsValue, b: AbsValue) -> AbsValue:
    return top(a.width)


def _abs(a: AbsValue) -> AbsValue:
    if a.smin <= 0 <= a.smax:
        lo = 0
    else:
        lo = min(abs(a.smin), abs(a.smax))
    hi = max(abs(a.smin), abs(a.smax))
    return make(a.width, umin=lo, umax=hi)


def _smin_t(a: AbsValue, b: AbsValue) -> AbsValue:
    j = a.join(b)
    return make(
        a.width, j.zeros, j.ones, j.umin, j.umax,
        min(a.smin, b.smin), min(a.smax, b.smax),
    )


def _smax_t(a: AbsValue, b: AbsValue) -> AbsValue:
    j = a.join(b)
    return make(
        a.width, j.zeros, j.ones, j.umin, j.umax,
        max(a.smin, b.smin), max(a.smax, b.smax),
    )


def _umin_t(a: AbsValue, b: AbsValue) -> AbsValue:
    j = a.join(b)
    return make(
        a.width, j.zeros, j.ones,
        min(a.umin, b.umin), min(a.umax, b.umax), j.smin, j.smax,
    )


def _umax_t(a: AbsValue, b: AbsValue) -> AbsValue:
    j = a.join(b)
    return make(
        a.width, j.zeros, j.ones,
        max(a.umin, b.umin), max(a.umax, b.umax), j.smin, j.smax,
    )


def _clamp_signed(value: int, width: int) -> int:
    half = 1 << (width - 1)
    return max(-half, min(half - 1, value))


def _saddsat(a: AbsValue, b: AbsValue) -> AbsValue:
    return make(
        a.width,
        smin=_clamp_signed(a.smin + b.smin, a.width),
        smax=_clamp_signed(a.smax + b.smax, a.width),
    )


def _uaddsat(a: AbsValue, b: AbsValue) -> AbsValue:
    mask = _mask(a.width)
    return make(
        a.width, umin=min(a.umin + b.umin, mask), umax=min(a.umax + b.umax, mask)
    )


def _ssubsat(a: AbsValue, b: AbsValue) -> AbsValue:
    return make(
        a.width,
        smin=_clamp_signed(a.smin - b.smax, a.width),
        smax=_clamp_signed(a.smax - b.smin, a.width),
    )


def _usubsat(a: AbsValue, b: AbsValue) -> AbsValue:
    return make(
        a.width, umin=max(a.umin - b.umax, 0), umax=max(a.umax - b.umin, 0)
    )


def _sshlsat(a: AbsValue, amount: AbsValue) -> AbsValue:
    width = a.width
    shifts = {min(amount.umin, width), min(amount.umax, width)}
    corners = [
        _clamp_signed(x << s, width) for x in (a.smin, a.smax) for s in shifts
    ]
    return make(width, smin=min(corners), smax=max(corners))


def _uavg(round_up: bool):
    r = 1 if round_up else 0

    def transfer(a: AbsValue, b: AbsValue) -> AbsValue:
        return make(
            a.width,
            umin=(a.umin + b.umin + r) >> 1,
            umax=(a.umax + b.umax + r) >> 1,
        )

    return transfer


def _savg(round_up: bool):
    r = 1 if round_up else 0

    def transfer(a: AbsValue, b: AbsValue) -> AbsValue:
        return make(
            a.width,
            smin=(a.smin + b.smin + r) >> 1,
            smax=(a.smax + b.smax + r) >> 1,
        )

    return transfer


def _popcount(a: AbsValue) -> AbsValue:
    return make(
        a.width,
        umin=bin(a.ones).count("1"),
        umax=bin(_mask(a.width) & ~a.zeros).count("1"),
    )


def _clz(a: AbsValue) -> AbsValue:
    return make(
        a.width,
        umin=a.width - a.umax.bit_length(),
        umax=a.width - a.umin.bit_length(),
    )


def _bool_result(truth: bool | None) -> AbsValue:
    if truth is None:
        return top(1)
    return const(1 if truth else 0, 1)


def _eq(a: AbsValue, b: AbsValue) -> AbsValue:
    if a.is_const() and b.is_const():
        return _bool_result(a.umin == b.umin)
    if provably_disagrees(a, b):
        return _bool_result(False)
    return _bool_result(None)


def _ne(a: AbsValue, b: AbsValue) -> AbsValue:
    result = _eq(a, b)
    truth = result.const_value()
    return _bool_result(None if truth is None else truth == 0)


def _cmp(attr_a: str, attr_b: str, strict: bool):
    """Order comparison via range bounds: a <(=) b decided by extremes."""

    def transfer(a: AbsValue, b: AbsValue) -> AbsValue:
        amin, amax = getattr(a, attr_a), getattr(a, attr_b)
        bmin, bmax = getattr(b, attr_a), getattr(b, attr_b)
        if strict:
            if amax < bmin:
                return _bool_result(True)
            if amin >= bmax:
                return _bool_result(False)
        else:
            if amax <= bmin:
                return _bool_result(True)
            if amin > bmax:
                return _bool_result(False)
        return _bool_result(None)

    return transfer


def _flip(transfer):
    return lambda a, b: transfer(b, a)


def _extract(a: AbsValue, high: int, low: int) -> AbsValue:
    if not 0 <= low <= high < a.width:
        raise ValueError(f"extract [{high}:{low}] out of range for width {a.width}")
    width = high - low + 1
    mask = _mask(width)
    kwargs = {
        "zeros": (a.zeros >> low) & mask,
        "ones": (a.ones >> low) & mask,
    }
    if low == 0:
        kwargs["umax"] = min(a.umax, mask)
        if a.umax <= mask:
            kwargs["umin"] = a.umin
    return make(width, **kwargs)


def _concat(high: AbsValue, low: AbsValue) -> AbsValue:
    width = high.width + low.width
    return make(
        width,
        zeros=(high.zeros << low.width) | low.zeros,
        ones=(high.ones << low.width) | low.ones,
        umin=(high.umin << low.width) + low.umin,
        umax=(high.umax << low.width) + low.umax,
    )


def _zext(a: AbsValue, new_width: int) -> AbsValue:
    if new_width < a.width:
        raise ValueError(f"zext cannot shrink {a.width} -> {new_width}")
    high = _mask(new_width) & ~_mask(a.width)
    return make(
        new_width, zeros=a.zeros | high, ones=a.ones, umin=a.umin, umax=a.umax
    )


def _sext(a: AbsValue, new_width: int) -> AbsValue:
    if new_width < a.width:
        raise ValueError(f"sext cannot shrink {a.width} -> {new_width}")
    if new_width == a.width:
        return a
    sign = 1 << (a.width - 1)
    high = _mask(new_width) & ~_mask(a.width)
    zeros = a.zeros & _mask(a.width - 1)
    ones = a.ones & _mask(a.width - 1)
    if a.zeros & sign:
        zeros |= high | sign
    elif a.ones & sign:
        ones |= high | sign
    return make(new_width, zeros=zeros, ones=ones, smin=a.smin, smax=a.smax)


def _trunc(a: AbsValue, new_width: int) -> AbsValue:
    if new_width > a.width:
        raise ValueError(f"trunc cannot grow {a.width} -> {new_width}")
    return _extract(a, new_width - 1, 0)


def _sat_signed(a: AbsValue, new_width: int) -> AbsValue:
    return make(
        new_width,
        smin=_clamp_signed(a.smin, new_width),
        smax=_clamp_signed(a.smax, new_width),
    )


def _sat_unsigned(a: AbsValue, new_width: int) -> AbsValue:
    mask = _mask(new_width)
    return make(
        new_width,
        umin=max(0, min(a.smin, mask)),
        umax=max(0, min(a.smax, mask)),
    )


def _resize_signed(a: AbsValue, new_width: int) -> AbsValue:
    return _sext(a, new_width) if new_width >= a.width else _trunc(a, new_width)


def _resize_unsigned(a: AbsValue, new_width: int) -> AbsValue:
    return _zext(a, new_width) if new_width >= a.width else _trunc(a, new_width)


# Patchable transfer tables, keyed like the BitVector method names the
# concrete evaluators dispatch on.  The injection tests monkeypatch
# individual entries; consumers must look ops up at call time.
BINARY_TRANSFERS = {
    "bvadd": _add,
    "bvsub": _sub,
    "bvmul": _mul,
    "bvudiv": _udiv,
    "bvurem": _urem,
    "bvsdiv": _sdiv,
    "bvsrem": _srem,
    "bvand": _and,
    "bvor": _or,
    "bvxor": _xor,
    "bvshl": _shl,
    "bvlshr": _lshr,
    "bvashr": _ashr,
    "bvrotl": _rotl,
    "bvrotr": _rotr,
    "bvsmin": _smin_t,
    "bvsmax": _smax_t,
    "bvumin": _umin_t,
    "bvumax": _umax_t,
    "bvsaddsat": _saddsat,
    "bvuaddsat": _uaddsat,
    "bvssubsat": _ssubsat,
    "bvusubsat": _usubsat,
    "bvsshlsat": _sshlsat,
    "bvuavg": _uavg(False),
    "bvsavg": _savg(False),
    "bvuavg_round": _uavg(True),
    "bvsavg_round": _savg(True),
}

UNARY_TRANSFERS = {
    "bvneg": _neg,
    "bvnot": _not,
    "bvabs": _abs,
    "popcount": _popcount,
    "count_leading_zeros": _clz,
}

CMP_TRANSFERS = {
    "bveq": _eq,
    "bvne": _ne,
    "bvult": _cmp("umin", "umax", strict=True),
    "bvule": _cmp("umin", "umax", strict=False),
    "bvugt": _flip(_cmp("umin", "umax", strict=True)),
    "bvuge": _flip(_cmp("umin", "umax", strict=False)),
    "bvslt": _cmp("smin", "smax", strict=True),
    "bvsle": _cmp("smin", "smax", strict=False),
    "bvsgt": _flip(_cmp("smin", "smax", strict=True)),
    "bvsge": _flip(_cmp("smin", "smax", strict=False)),
}

CAST_TRANSFERS = {
    "zext": _zext,
    "sext": _sext,
    "trunc": _trunc,
    "saturate_to_signed": _sat_signed,
    "saturate_to_unsigned": _sat_unsigned,
    "resize_signed": _resize_signed,
    "resize_unsigned": _resize_unsigned,
}


def _binary(op: str, a: AbsValue, b: AbsValue) -> AbsValue:
    transfer = BINARY_TRANSFERS.get(op)
    if transfer is None:
        raise SemanticsError(f"no abstract transfer for binary op {op!r}")
    if op not in ("bvshl", "bvlshr", "bvashr", "bvrotl", "bvrotr", "bvsshlsat"):
        # Shift amounts follow the concrete semantics (any width accepted);
        # everything else mirrors BitVector's same-width requirement.
        if a.width != b.width:
            raise SemanticsError(
                f"{op} requires equal widths, got {a.width} and {b.width}"
            )
    return transfer(a, b)


def _compare(op: str, a: AbsValue, b: AbsValue) -> AbsValue:
    transfer = CMP_TRANSFERS.get(op)
    if transfer is None:
        raise SemanticsError(f"no abstract transfer for comparison {op!r}")
    if a.width != b.width:
        raise SemanticsError(
            f"{op} requires equal widths, got {a.width} and {b.width}"
        )
    return transfer(a, b)


def _cast(op: str, a: AbsValue, new_width: int) -> AbsValue:
    transfer = CAST_TRANSFERS.get(op)
    if transfer is None:
        raise SemanticsError(f"no abstract transfer for cast {op!r}")
    return transfer(a, new_width)


# ----------------------------------------------------------------------
# Hydride IR (semantics function) evaluation
# ----------------------------------------------------------------------


def _index_free_of(expr: BvExpr, var: str) -> bool:
    """True when no index expression under ``expr`` reads iterator ``var``."""
    for node in expr.walk():
        if isinstance(node, ForConcat) and node.var == var:
            # The inner loop shadows the name; treating it as free would
            # only cost precision, but the shadowed body truly is
            # independent of the outer iterator through this name.
            continue
        for index in node.index_exprs():
            if var in index.ivars():
                return False
    return True


def abstract_semantics(
    func: SemanticsFunction,
    inputs: Mapping[str, AbsValue] | None = None,
    params: Mapping[str, int] | None = None,
    observe=None,
) -> AbsValue:
    """Abstractly execute a semantics function.

    ``inputs`` maps input names to abstract values; unmapped inputs
    (including immediates) default to top at their resolved width.
    ``observe(node, value, children)`` is invoked after each node is
    evaluated — the semantic lint rules hang off this hook.  Mirrors
    :func:`repro.hydride_ir.interp.interpret` node for node, including
    which shapes raise :class:`SemanticsError`.
    """
    param_env: dict[str, int] = dict(params if params is not None else func.params)
    widths = resolved_input_widths(func, param_env)
    bound: dict[str, AbsValue] = {
        name: top(width) for name, width in widths.items() if width > 0
    }
    if inputs:
        for name, value in inputs.items():
            bound[name] = value

    def notify(node: BvExpr, value: AbsValue, children) -> AbsValue:
        if observe is not None:
            observe(node, value, children)
        return value

    def run(expr: BvExpr, env: dict[str, int]) -> AbsValue:
        if isinstance(expr, BvVar):
            value = bound.get(expr.name)
            if value is None:
                raise SemanticsError(f"missing input {expr.name!r}")
            return notify(expr, value, ())
        if isinstance(expr, BvConst):
            width = expr.width.evaluate(env)
            if width <= 0:
                raise SemanticsError(f"constant width {width} in {func.name}")
            return notify(expr, const(expr.value.evaluate(env), width), ())
        if isinstance(expr, BvBroadcastConst):
            elem_width = expr.elem_width.evaluate(env)
            count = expr.num_elems.evaluate(env)
            if elem_width <= 0 or count <= 0:
                raise SemanticsError(f"broadcast shape in {func.name}")
            elem = const(expr.value.evaluate(env), elem_width)
            return notify(expr, pack_lanes([elem] * count), ())
        if isinstance(expr, BvExtract):
            src = run(expr.src, env)
            low = expr.low.evaluate(env)
            width = expr.width.evaluate(env)
            if low < 0 or width <= 0 or low + width > src.width:
                raise SemanticsError(
                    f"extract [{low}, {low + width}) out of range "
                    f"for width {src.width} in {func.name}"
                )
            return notify(expr, _extract(src, low + width - 1, low), (src,))
        if isinstance(expr, BvBinOp):
            left = run(expr.left, env)
            right = run(expr.right, env)
            return notify(expr, _binary(expr.op, left, right), (left, right))
        if isinstance(expr, BvUnOp):
            operand = run(expr.operand, env)
            transfer = UNARY_TRANSFERS.get(expr.op)
            if transfer is None:
                raise SemanticsError(
                    f"no abstract transfer for unary op {expr.op!r}"
                )
            return notify(expr, transfer(operand), (operand,))
        if isinstance(expr, BvCmp):
            left = run(expr.left, env)
            right = run(expr.right, env)
            return notify(expr, _compare(expr.op, left, right), (left, right))
        if isinstance(expr, BvCast):
            operand = run(expr.operand, env)
            new_width = expr.new_width.evaluate(env)
            if new_width <= 0:
                raise SemanticsError(f"cast width {new_width} in {func.name}")
            try:
                value = _cast(expr.op, operand, new_width)
            except ValueError as error:
                raise SemanticsError(str(error)) from None
            return notify(expr, value, (operand,))
        if isinstance(expr, BvIte):
            cond = run(expr.cond, env)
            taken = cond.const_value()
            if taken is not None:
                branch = expr.then_expr if taken else expr.else_expr
                return notify(expr, run(branch, env), (cond,))
            then_value = run(expr.then_expr, env)
            else_value = run(expr.else_expr, env)
            if then_value.width != else_value.width:
                raise SemanticsError(
                    f"ite branch widths differ in {func.name}: "
                    f"{then_value.width} vs {else_value.width}"
                )
            joined = then_value.join(else_value)
            return notify(expr, joined, (cond, then_value, else_value))
        if isinstance(expr, ForConcat):
            count = expr.count.evaluate(env)
            if count <= 0:
                raise SemanticsError(f"loop count {count} in {func.name}")
            return notify(expr, _run_loop(expr, env, count, run), ())
        if isinstance(expr, BvConcat):
            parts = [run(p, env) for p in expr.parts]
            result = parts[0]
            for part in parts[1:]:
                result = _concat(part, result)
            return notify(expr, result, tuple(parts))
        raise SemanticsError(f"unknown expression node {type(expr).__name__}")

    def _run_loop(expr: ForConcat, env: dict[str, int], count: int, run) -> AbsValue:
        if count > UNROLL_LIMIT and _index_free_of(expr.body, expr.var):
            body_env = dict(env)
            body_env[expr.var] = 0
            piece = run(expr.body, body_env)
            return pack_lanes([piece] * count)
        exact = min(count, UNROLL_LIMIT)
        pieces: list[AbsValue] = []
        for i in range(exact):
            env_i = dict(env)
            env_i[expr.var] = i
            pieces.append(run(expr.body, env_i))
        for i in range(exact, count):
            # Widen the tail to top at each iteration's width: the body
            # depends on the iterator, and the unroll budget is spent.
            env_i = dict(env)
            env_i[expr.var] = i
            pieces.append(top(compute_width(expr.body, env_i, widths)))
        return pack_lanes(pieces)

    return run(func.body, param_env)
