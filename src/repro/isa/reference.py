"""Reference executables for instruction families.

Every generated instruction spec carries a ``reference`` callable — an
independent implementation of the instruction built directly on
:class:`repro.bitvector.Vector` — standing in for the "target-specific C
builtins" the paper fuzzes its parsed semantics against.  The reference
path deliberately shares no code with the pseudocode parser/lowerer, so a
divergence means one of the two is wrong (usually the pseudocode, as the
paper found for shifts and saturating ops in vendor manuals).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.bitvector.bv import BitVector
from repro.bitvector.lanes import Vector, vector_from_elems

Env = Mapping[str, BitVector]
Reference = Callable[[Env], BitVector]


def _vec(env: Env, name: str, elem_width: int) -> Vector:
    return Vector(env[name], elem_width)


def _lane_binop(op: Callable[[BitVector, BitVector], BitVector]) -> Callable:
    def make(elem_width: int, a: str = "a", b: str = "b") -> Reference:
        def run(env: Env) -> BitVector:
            va, vb = _vec(env, a, elem_width), _vec(env, b, elem_width)
            return vector_from_elems(
                [op(x, y) for x, y in zip(va.elems(), vb.elems())]
            ).bits

        return run

    return make


# Element-wise binary families -----------------------------------------------

ref_add = _lane_binop(lambda x, y: x.bvadd(y))
ref_sub = _lane_binop(lambda x, y: x.bvsub(y))
ref_mullo = _lane_binop(lambda x, y: x.bvmul(y))
ref_and = _lane_binop(lambda x, y: x.bvand(y))
ref_or = _lane_binop(lambda x, y: x.bvor(y))
ref_xor = _lane_binop(lambda x, y: x.bvxor(y))
ref_andnot = _lane_binop(lambda x, y: x.bvnot().bvand(y))
ref_min_s = _lane_binop(lambda x, y: x.bvsmin(y))
ref_max_s = _lane_binop(lambda x, y: x.bvsmax(y))
ref_min_u = _lane_binop(lambda x, y: x.bvumin(y))
ref_max_u = _lane_binop(lambda x, y: x.bvumax(y))
ref_adds = _lane_binop(lambda x, y: x.bvsaddsat(y))
ref_addus = _lane_binop(lambda x, y: x.bvuaddsat(y))
ref_subs = _lane_binop(lambda x, y: x.bvssubsat(y))
ref_subus = _lane_binop(lambda x, y: x.bvusubsat(y))
ref_avg_u_rnd = _lane_binop(lambda x, y: x.bvuavg(y, round_up=True))
ref_avg_s_rnd = _lane_binop(lambda x, y: x.bvsavg(y, round_up=True))
ref_havg_u = _lane_binop(lambda x, y: x.bvuavg(y))
ref_havg_s = _lane_binop(lambda x, y: x.bvsavg(y))


def ref_mulhi(elem_width: int, signed: bool) -> Reference:
    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", elem_width), _vec(env, "b", elem_width)
        out = []
        for x, y in zip(va.elems(), vb.elems()):
            wide_x = x.sext(2 * elem_width) if signed else x.zext(2 * elem_width)
            wide_y = y.sext(2 * elem_width) if signed else y.zext(2 * elem_width)
            out.append(wide_x.bvmul(wide_y).extract(2 * elem_width - 1, elem_width))
        return vector_from_elems(out).bits

    return run


def ref_cmp(elem_width: int, kind: str) -> Reference:
    """All-ones / all-zeros comparison mask per element."""

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", elem_width), _vec(env, "b", elem_width)
        out = []
        ones = BitVector((1 << elem_width) - 1, elem_width)
        zero = BitVector(0, elem_width)
        for x, y in zip(va.elems(), vb.elems()):
            if kind == "eq":
                hit = x.value == y.value
            elif kind == "gt_s":
                hit = x.signed > y.signed
            elif kind == "gt_u":
                hit = x.unsigned > y.unsigned
            else:
                raise ValueError(kind)
            out.append(ones if hit else zero)
        return vector_from_elems(out).bits

    return run


def ref_abs(elem_width: int) -> Reference:
    def run(env: Env) -> BitVector:
        return _vec(env, "a", elem_width).map_lanes(lambda x: x.bvabs()).bits

    return run


def ref_shift_imm(elem_width: int, kind: str) -> Reference:
    def run(env: Env) -> BitVector:
        amount = env["imm"].zext(elem_width) if env["imm"].width < elem_width else env[
            "imm"
        ].trunc(elem_width)

        def shift(x: BitVector) -> BitVector:
            if kind == "shl":
                return x.bvshl(amount)
            if kind == "lshr":
                return x.bvlshr(amount)
            return x.bvashr(amount)

        return _vec(env, "a", elem_width).map_lanes(shift).bits

    return run


def ref_shift_var(elem_width: int, kind: str) -> Reference:
    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", elem_width), _vec(env, "b", elem_width)
        out = []
        for x, y in zip(va.elems(), vb.elems()):
            if kind == "shl":
                out.append(x.bvshl(y))
            elif kind == "lshr":
                out.append(x.bvlshr(y))
            else:
                out.append(x.bvashr(y))
        return vector_from_elems(out).bits

    return run


def ref_rotate(elem_width: int, left: bool) -> Reference:
    def run(env: Env) -> BitVector:
        amount = env["imm"].resize_unsigned(elem_width)

        def rot(x: BitVector) -> BitVector:
            return x.bvrotl(amount) if left else x.bvrotr(amount)

        return _vec(env, "a", elem_width).map_lanes(rot).bits

    return run


# Swizzle families -------------------------------------------------------------


def ref_unpack(
    elem_width: int, vector_width: int, high: bool, lane_bits: int = 128
) -> Reference:
    """Interleave elements from the low/high half of each lane.

    ``lane_bits`` is the spec's lane width (x86 passes its 128-bit SSE
    lane); it is a parameter so VLEN-parametric references don't mis-lane.
    """
    if lane_bits % elem_width or vector_width % lane_bits:
        raise ValueError(
            f"lane width {lane_bits} incompatible with element {elem_width} "
            f"/ vector {vector_width}"
        )

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", elem_width), _vec(env, "b", elem_width)
        lane_elems = lane_bits // elem_width
        half = lane_elems // 2
        offset = half if high else 0
        out = []
        for lane in range(vector_width // lane_bits):
            base = lane * lane_elems
            for k in range(half):
                out.append(va.elem(base + offset + k))
                out.append(vb.elem(base + offset + k))
        return vector_from_elems(out).bits

    return run


def ref_pack(
    src_width: int, vector_width: int, unsigned: bool, lane_bits: int = 128
) -> Reference:
    """Narrow two vectors with saturation, one lane at a time."""
    dst_width = src_width // 2
    if lane_bits % src_width or vector_width % lane_bits:
        raise ValueError(
            f"lane width {lane_bits} incompatible with element {src_width} "
            f"/ vector {vector_width}"
        )

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", src_width), _vec(env, "b", src_width)
        lane_elems = lane_bits // src_width
        out = []
        for lane in range(vector_width // lane_bits):
            base = lane * lane_elems
            for source in (va, vb):
                for k in range(lane_elems):
                    elem = source.elem(base + k)
                    if unsigned:
                        out.append(elem.saturate_to_unsigned(dst_width))
                    else:
                        out.append(elem.saturate_to_signed(dst_width))
        return vector_from_elems(out).bits

    return run


def ref_broadcast(elem_width: int, count: int) -> Reference:
    def run(env: Env) -> BitVector:
        elem = env["a"].trunc(elem_width)
        return vector_from_elems([elem] * count).bits

    return run


def ref_convert(src_width: int, dst_width: int, count: int, signed: bool) -> Reference:
    def run(env: Env) -> BitVector:
        va = _vec(env, "a", src_width)
        out = []
        for k in range(count):
            elem = va.elem(k)
            out.append(elem.sext(dst_width) if signed else elem.zext(dst_width))
        return vector_from_elems(out).bits

    return run


def ref_blendv(elem_width: int) -> Reference:
    """Select per element on the mask element's sign bit."""

    def run(env: Env) -> BitVector:
        va = _vec(env, "a", elem_width)
        vb = _vec(env, "b", elem_width)
        vm = _vec(env, "m", elem_width)
        out = [
            y if m.signed < 0 else x
            for x, y, m in zip(va.elems(), vb.elems(), vm.elems())
        ]
        return vector_from_elems(out).bits

    return run


# Reduction / dot-product families ----------------------------------------------


def ref_maddwd(vector_width: int) -> Reference:
    """pmaddwd: 16x16->32 multiply, horizontal pair add."""

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", 16), _vec(env, "b", 16)
        out = []
        for k in range(vector_width // 32):
            lo = va.elem(2 * k).sext(32).bvmul(vb.elem(2 * k).sext(32))
            hi = va.elem(2 * k + 1).sext(32).bvmul(vb.elem(2 * k + 1).sext(32))
            out.append(lo.bvadd(hi))
        return vector_from_elems(out).bits

    return run


def ref_maddubs(vector_width: int) -> Reference:
    """pmaddubsw: u8 x s8 pair products, saturating pair add."""

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", 8), _vec(env, "b", 8)
        out = []
        for k in range(vector_width // 16):
            lo = va.elem(2 * k).zext(16).bvmul(vb.elem(2 * k).sext(16))
            hi = va.elem(2 * k + 1).zext(16).bvmul(vb.elem(2 * k + 1).sext(16))
            out.append(lo.bvsaddsat(hi))
        return vector_from_elems(out).bits

    return run


def ref_dpwssd(vector_width: int, saturate: bool) -> Reference:
    """VNNI dpwssd(s): 2-way 16-bit dot product accumulating into 32-bit."""

    def run(env: Env) -> BitVector:
        acc = _vec(env, "src", 32)
        va, vb = _vec(env, "a", 16), _vec(env, "b", 16)
        out = []
        for k in range(vector_width // 32):
            lo = va.elem(2 * k).sext(32).bvmul(vb.elem(2 * k).sext(32))
            hi = va.elem(2 * k + 1).sext(32).bvmul(vb.elem(2 * k + 1).sext(32))
            total = lo.bvadd(hi)
            if saturate:
                out.append(acc.elem(k).bvsaddsat(total))
            else:
                out.append(acc.elem(k).bvadd(total))
        return vector_from_elems(out).bits

    return run


def ref_dpbusd(vector_width: int, saturate: bool) -> Reference:
    """VNNI dpbusd(s): 4-way u8 x s8 dot product accumulating into 32-bit."""

    def run(env: Env) -> BitVector:
        acc = _vec(env, "src", 32)
        va, vb = _vec(env, "a", 8), _vec(env, "b", 8)
        out = []
        for k in range(vector_width // 32):
            total = BitVector(0, 32)
            for j in range(4):
                prod = va.elem(4 * k + j).zext(32).bvmul(vb.elem(4 * k + j).sext(32))
                total = total.bvadd(prod)
            if saturate:
                out.append(acc.elem(k).bvsaddsat(total))
            else:
                out.append(acc.elem(k).bvadd(total))
        return vector_from_elems(out).bits

    return run


def ref_hadd(
    elem_width: int, vector_width: int, sub: bool, lane_bits: int = 128
) -> Reference:
    """Horizontal pairwise add/sub within each lane."""
    if lane_bits % elem_width or vector_width % lane_bits:
        raise ValueError(
            f"lane width {lane_bits} incompatible with element {elem_width} "
            f"/ vector {vector_width}"
        )

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", elem_width), _vec(env, "b", elem_width)
        lane_elems = lane_bits // elem_width
        out = []
        for lane in range(vector_width // lane_bits):
            base = lane * lane_elems
            for source in (va, vb):
                for k in range(lane_elems // 2):
                    x = source.elem(base + 2 * k)
                    y = source.elem(base + 2 * k + 1)
                    out.append(x.bvsub(y) if sub else x.bvadd(y))
        return vector_from_elems(out).bits

    return run


def ref_sad(vector_width: int) -> Reference:
    """psadbw: sum of absolute differences over 8-byte groups."""

    def run(env: Env) -> BitVector:
        va, vb = _vec(env, "a", 8), _vec(env, "b", 8)
        out = []
        for group in range(vector_width // 64):
            total = BitVector(0, 64)
            for j in range(8):
                x = va.elem(group * 8 + j).zext(64)
                y = vb.elem(group * 8 + j).zext(64)
                total = total.bvadd(x.bvsub(y).bvabs())
            out.append(total)
        return vector_from_elems(out).bits

    return run


# Masking ------------------------------------------------------------------------


def ref_masked(base: Reference, elem_width: int, count: int, zeroing: bool) -> Reference:
    """AVX-512 mask/maskz wrapper around an element-wise reference."""

    def run(env: Env) -> BitVector:
        raw = Vector(base(env), elem_width)
        mask = env["k"]
        out = []
        for i in range(count):
            if (mask.value >> i) & 1:
                out.append(raw.elem(i))
            elif zeroing:
                out.append(BitVector(0, elem_width))
            else:
                out.append(Vector(env["src"], elem_width).elem(i))
        return vector_from_elems(out).bits

    return run


# Scalar ops -----------------------------------------------------------------------


def ref_scalar(op: str, width: int) -> Reference:
    def run(env: Env) -> BitVector:
        a = env["a"]
        if op in ("not", "neg"):
            return a.bvnot() if op == "not" else a.bvneg()
        b = env["b"]
        table = {
            "add": a.bvadd,
            "sub": a.bvsub,
            "mul": a.bvmul,
            "and": a.bvand,
            "or": a.bvor,
            "xor": a.bvxor,
            "shl": a.bvshl,
            "shr": a.bvlshr,
            "sar": a.bvashr,
            "rol": a.bvrotl,
            "ror": a.bvrotr,
        }
        return table[op](b)

    return run
