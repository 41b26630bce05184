"""Unit and property tests for the bitvector substrate."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitvector import BitVector, bv, concat_many
from repro.bitvector.lanes import Vector, vector_from_elems, vector_from_ints

WIDTHS = st.sampled_from([1, 4, 8, 13, 16, 32, 64])


@st.composite
def bv_pairs(draw):
    width = draw(WIDTHS)
    a = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return BitVector(a, width), BitVector(b, width)


class TestConstruction:
    def test_masks_value(self):
        assert bv(0x1FF, 8).value == 0xFF

    def test_negative_wraps(self):
        assert bv(-1, 8).value == 0xFF

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            bv(0, 0)

    def test_signed_interpretation(self):
        assert bv(0x80, 8).signed == -128
        assert bv(0x7F, 8).signed == 127
        assert bv(0xFF, 8).signed == -1

    def test_bounds(self):
        x = bv(0, 16)
        assert x.smin == -(1 << 15)
        assert x.smax == (1 << 15) - 1
        assert x.umax == (1 << 16) - 1


class TestArithmetic:
    def test_add_wraps(self):
        assert bv(0xFF, 8).bvadd(bv(1, 8)).value == 0

    def test_sub_wraps(self):
        assert bv(0, 8).bvsub(bv(1, 8)).value == 0xFF

    def test_mul(self):
        assert bv(7, 8).bvmul(bv(37, 8)).value == (7 * 37) & 0xFF

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bv(1, 8).bvadd(bv(1, 16))

    def test_sdiv_truncates_toward_zero(self):
        assert bv(-7, 8).bvsdiv(bv(2, 8)).signed == -3

    def test_sdiv_by_zero_smt_semantics(self):
        assert bv(5, 8).bvsdiv(bv(0, 8)).value == 0xFF
        assert bv(-5, 8).bvsdiv(bv(0, 8)).value == 1

    def test_udiv_by_zero_all_ones(self):
        assert bv(5, 8).bvudiv(bv(0, 8)).value == 0xFF

    def test_srem_sign_of_dividend(self):
        assert bv(-7, 8).bvsrem(bv(2, 8)).signed == -1
        assert bv(7, 8).bvsrem(bv(-2, 8)).signed == 1

    @given(bv_pairs())
    def test_add_matches_integers(self, pair):
        a, b = pair
        assert a.bvadd(b).value == (a.value + b.value) % (1 << a.width)

    @given(bv_pairs())
    def test_sub_add_roundtrip(self, pair):
        a, b = pair
        assert a.bvsub(b).bvadd(b).value == a.value

    @given(bv_pairs())
    def test_neg_is_sub_from_zero(self, pair):
        a, _ = pair
        assert a.bvneg().value == BitVector(0, a.width).bvsub(a).value


class TestShifts:
    def test_shl_overflow_is_zero(self):
        assert bv(1, 8).bvshl(bv(8, 8)).value == 0

    def test_ashr_replicates_sign(self):
        assert bv(0x80, 8).bvashr(bv(7, 8)).value == 0xFF

    def test_ashr_overshift_saturates_to_sign(self):
        assert bv(0x80, 8).bvashr(bv(200, 8)).value == 0xFF
        assert bv(0x40, 8).bvashr(bv(200, 8)).value == 0

    def test_lshr(self):
        assert bv(0x80, 8).bvlshr(bv(7, 8)).value == 1

    def test_rotate_roundtrip(self):
        x = bv(0b10110100, 8)
        assert x.bvrotl(bv(3, 8)).bvrotr(bv(3, 8)).value == x.value

    @given(bv_pairs())
    def test_shl_matches_mul_by_power(self, pair):
        a, _ = pair
        shift = 1
        expected = a.bvmul(BitVector(2, a.width))
        assert a.bvshl(BitVector(shift, a.width)).value == expected.value


class TestComparisons:
    def test_signed_vs_unsigned(self):
        a, b = bv(0xFF, 8), bv(1, 8)
        assert a.bvugt(b).value == 1
        assert a.bvslt(b).value == 1

    @given(bv_pairs())
    def test_comparison_trichotomy(self, pair):
        a, b = pair
        total = a.bvslt(b).value + a.bvsgt(b).value + a.bveq(b).value
        assert total == 1

    @given(bv_pairs())
    def test_minmax_consistent(self, pair):
        a, b = pair
        assert a.bvsmin(b).signed <= a.bvsmax(b).signed
        assert a.bvumin(b).unsigned <= a.bvumax(b).unsigned
        assert {a.bvsmin(b).value, a.bvsmax(b).value} == {a.value, b.value}

    @pytest.mark.parametrize("op", ("bvsmin", "bvsmax", "bvumin", "bvumax"))
    def test_minmax_width_mismatch_rejected(self, op):
        # The result's width must not depend on which operand wins —
        # smt.apply_op rejects the same application.
        with pytest.raises(ValueError):
            getattr(bv(200, 8), op)(bv(5, 16))
        with pytest.raises(ValueError):
            getattr(bv(5, 16), op)(bv(200, 8))


class TestWidthChanges:
    def test_extract(self):
        assert bv(0xABCD, 16).extract(15, 8).value == 0xAB
        assert bv(0xABCD, 16).extract(7, 0).value == 0xCD

    def test_extract_bounds_checked(self):
        with pytest.raises(ValueError):
            bv(0, 8).extract(8, 0)

    def test_concat_order(self):
        assert bv(0xAB, 8).concat(bv(0xCD, 8)).value == 0xABCD

    def test_concat_many_msb_first(self):
        assert concat_many([bv(1, 4), bv(2, 4), bv(3, 4)]).value == 0x123

    def test_sext_zext(self):
        assert bv(0x80, 8).sext(16).value == 0xFF80
        assert bv(0x80, 8).zext(16).value == 0x0080

    def test_trunc(self):
        assert bv(0xABCD, 16).trunc(8).value == 0xCD

    @given(bv_pairs())
    def test_extract_concat_roundtrip(self, pair):
        a, b = pair
        joined = a.concat(b)
        assert joined.extract(joined.width - 1, b.width).value == a.value
        assert joined.extract(b.width - 1, 0).value == b.value

    @given(bv_pairs())
    def test_sext_preserves_signed_value(self, pair):
        a, _ = pair
        assert a.sext(a.width + 7).signed == a.signed


class TestSaturation:
    def test_saddsat_clamps_high(self):
        assert bv(127, 8).bvsaddsat(bv(1, 8)).signed == 127

    def test_saddsat_clamps_low(self):
        assert bv(-128, 8).bvsaddsat(bv(-1, 8)).signed == -128

    def test_uaddsat(self):
        assert bv(255, 8).bvuaddsat(bv(10, 8)).value == 255

    def test_usubsat_floor_zero(self):
        assert bv(3, 8).bvusubsat(bv(10, 8)).value == 0

    def test_saturate_to_signed(self):
        assert bv(1000, 16).saturate_to_signed(8).signed == 127
        assert bv(-1000, 16).saturate_to_signed(8).signed == -128
        assert bv(5, 16).saturate_to_signed(8).signed == 5

    def test_saturate_to_unsigned(self):
        assert bv(-5, 16).saturate_to_unsigned(8).value == 0
        assert bv(300, 16).saturate_to_unsigned(8).value == 255

    @given(bv_pairs())
    def test_saddsat_bounded(self, pair):
        a, b = pair
        result = a.bvsaddsat(b)
        exact = a.signed + b.signed
        assert result.signed == max(a.smin, min(a.smax, exact))

    @given(bv_pairs())
    def test_sshlsat_never_overflows_sign(self, pair):
        a, _ = pair
        shifted = a.bvsshlsat(BitVector(2, a.width))
        exact = a.signed << 2
        assert shifted.signed == max(a.smin, min(a.smax, exact))


class TestAveraging:
    def test_uavg(self):
        assert bv(3, 8).bvuavg(bv(4, 8)).value == 3
        assert bv(3, 8).bvuavg(bv(4, 8), round_up=True).value == 4

    def test_uavg_no_overflow(self):
        assert bv(255, 8).bvuavg(bv(255, 8), round_up=True).value == 255

    @given(bv_pairs())
    def test_savg_matches_wide_arith(self, pair):
        a, b = pair
        assert a.bvsavg(b).signed == (a.signed + b.signed) >> 1


class TestCounting:
    def test_popcount(self):
        assert bv(0b1011, 8).popcount().value == 3

    def test_count_leading_zeros(self):
        assert bv(1, 8).count_leading_zeros().value == 7
        assert bv(0, 8).count_leading_zeros().value == 8


class TestVector:
    def test_lane_order_little_endian(self):
        vec = vector_from_ints([1, 2, 3, 4], 8)
        assert vec.bits.value == 0x04030201
        assert vec.elem(0).value == 1
        assert vec.elem(3).value == 4

    def test_roundtrip(self):
        values = [5, 250, 17, 0]
        vec = vector_from_ints(values, 8)
        assert vec.to_ints_unsigned() == values

    def test_with_elem(self):
        vec = vector_from_ints([1, 2, 3, 4], 8).with_elem(2, bv(9, 8))
        assert vec.to_ints_unsigned() == [1, 2, 9, 4]

    def test_map_lanes(self):
        vec = vector_from_ints([1, 2, 3, 4], 8)
        doubled = vec.map_lanes(lambda x: x.bvadd(x))
        assert doubled.to_ints_unsigned() == [2, 4, 6, 8]

    def test_reinterpret(self):
        vec = vector_from_ints([0x1122, 0x3344], 16)
        as_bytes = vec.reinterpret(8)
        assert as_bytes.to_ints_unsigned() == [0x22, 0x11, 0x44, 0x33]

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            vector_from_elems([bv(1, 8), bv(2, 16)])

    def test_non_multiple_width_rejected(self):
        with pytest.raises(ValueError):
            Vector(bv(0, 12), 8)


class TestValueContract:
    """What callers rely on of the value type itself: masking, equality,
    hashing, immutability, pickling and copying."""

    def test_masks_on_construction(self):
        assert BitVector(0x1FF, 8).value == 0xFF
        assert BitVector(-1, 16).value == 0xFFFF
        assert BitVector(1 << 70, 64).value == 0
        assert BitVector(5, 8).width == 8

    @pytest.mark.parametrize("width", (0, -1, -64))
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            BitVector(1, width)

    def test_equality_and_hash(self):
        assert BitVector(0x1FF, 8) == BitVector(0xFF, 8)
        assert BitVector(1, 8) != BitVector(1, 16)
        assert BitVector(1, 8) != BitVector(2, 8)
        assert BitVector(1, 8) != 1
        assert BitVector(1, 8) != (1, 8)
        assert hash(BitVector(0x1FF, 8)) == hash(BitVector(0xFF, 8))
        assert hash(BitVector(3, 8)) == hash((3, 8))
        assert len({BitVector(3, 8), BitVector(3 + 256, 8), BitVector(3, 9)}) == 2

    @pytest.mark.parametrize("field", ("value", "width", "other"))
    def test_assignment_raises(self, field):
        value = BitVector(3, 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 4)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert value == BitVector(3, 8)

    def test_pickle_and_copy_round_trip(self):
        value = BitVector(0xBEEF, 16)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(value, protocol))
            assert restored == value and type(restored) is BitVector
        assert copy.copy(value) == value
        assert copy.deepcopy([value]) == [value]

    def test_repr(self):
        assert repr(BitVector(0xBEEF, 16)) == "bv16(0xbeef)"
        assert repr(BitVector(0, 1)) == "bv1(0x0)"
