"""The one rewrite walk over target programs (``map_program``), each
rewrite built on it, the one lane-scaling law for programs, and the
window-key codec (``canonical_key`` / ``parse_window``)."""

import pytest

from repro.autollvm import build_dictionary
from repro.bitvector import BitVector, swizzle_order
from repro.backend.hydride import rewrite_broadcasts
from repro.halide import ir as hir
from repro.isa.registry import supported_isas
from repro.synthesis.cache import (
    KeyParseError,
    _rename,
    canonical_key,
    parse_window,
)
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SHole,
    SInput,
    SOp,
    SSlice,
    SSwizzle,
    evaluate_program,
    fold_program,
    make_packed_program,
    map_program,
    program_to_term,
)
from repro.synthesis.rules import (
    _program_consts,
    _replace_consts,
    instantiate,
    normalize_program,
)
from repro.synthesis.scale import (
    scale_down_program,
    scale_up_program,
    scaled_member_values,
)
from repro.smt.eval import evaluate
from repro.workloads.registry import all_benchmarks

FACTORS = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86", "hvx", "arm", "rvv"))


def _binding(dictionary, name):
    op = dictionary.by_target_instruction[name]
    return op, next(b for b in op.bindings if b.spec.name == name)


def _sop(dictionary, name, args, scaled_values=None, out_bits=None):
    op, binding = _binding(dictionary, name)
    if out_bits is None:
        out_bits = binding.spec.output_width
    return SOp(op, binding, tuple(args), (), scaled_values, out_bits)


def _every_kind(dictionary, add="_mm_add_epi16", lanes=8, scaled_values=None):
    """``add(concat(hi(a), lo(splat 3)), rotate_right(interleave_lo(?h,
    splat 5), 2))``: every node kind, the hole leaf included, at
    ``lanes`` i16 lanes."""
    bits = lanes * 16
    left = SConcat(
        SSlice(SInput("a", lanes, 16), True),
        SSlice(SConstant(3, lanes, 16), False),
    )
    right = SSwizzle(
        "rotate_right",
        (
            SSwizzle(
                "interleave_lo",
                (SHole("__h0", lanes, 16), SConstant(5, lanes, 16)),
                16,
                bits,
            ),
        ),
        16,
        bits,
        2,
    )
    return _sop(dictionary, add, (left, right), scaled_values, bits)


class TestMapProgram:
    def test_identity(self, dictionary):
        program = _every_kind(dictionary)
        assert map_program(program, lambda n: n) == program

    def test_post_order_left_to_right(self, dictionary):
        seen = []

        def record(node):
            seen.append(type(node).__name__)
            return node

        map_program(_every_kind(dictionary), record)
        assert seen == [
            "SInput", "SSlice", "SConstant", "SSlice", "SConcat",
            "SHole", "SConstant", "SSwizzle", "SSwizzle", "SOp",
        ]

    def test_fn_sees_rebuilt_children(self):
        program = SSlice(SInput("a", 8, 16), False)

        def widen(node):
            if isinstance(node, SInput):
                return SInput(node.name, node.lanes * 2, node.elem_width)
            assert node.src.lanes == 16
            return node

        assert map_program(program, widen) == SSlice(SInput("a", 16, 16), False)


class TestFoldProgram:
    """The one evaluation walk, and the three evaluators built on it."""

    @staticmethod
    def shared(dictionary):
        """``add(s, rotate_right(s, 1))`` with ``s = add(a, splat 3)``,
        read by both parents as one node, at 8 i16 lanes."""
        s = _sop(
            dictionary, "_mm_add_epi16", (SInput("a", 8, 16), SConstant(3, 8, 16))
        )
        return _sop(
            dictionary, "_mm_add_epi16",
            (s, SSwizzle("rotate_right", (s,), 16, 128, 1)),
        )

    def test_each_distinct_node_is_computed_once(self, dictionary):
        steps, leaves = [], []

        def step(node, args):
            steps.append(type(node).__name__)
            return 0

        fold_program(self.shared(dictionary), leaves.append, step)
        assert [leaf.name for leaf in leaves] == ["a"]
        assert steps == ["SConstant", "SOp", "SSwizzle", "SOp"]

    def test_three_evaluators_agree_on_a_shared_subtree(self, dictionary):
        program = self.shared(dictionary)
        lanes = [0, 1, 0x7FFF, 0xFFFF, 0x8000, 0x1234, 0xFFFD, 42]
        a = BitVector(sum(v << (16 * i) for i, v in enumerate(lanes)), 128)
        s = [(v + 3) & 0xFFFF for v in lanes]
        rotated = [s[index] for _, index in swizzle_order("rotate_right", 8, 1)]
        want = sum(
            ((x + y) & 0xFFFF) << (16 * i) for i, (x, y) in enumerate(zip(s, rotated))
        )
        env = {"a": a}
        assert evaluate_program(program, env).value == want
        assert make_packed_program(program)({"a": a.value}) == want
        assert evaluate(program_to_term(program), env).value == want


class TestWalks:
    """Each rewrite on the every-kind program, against its hand-written
    expected output."""

    def test_scale_up(self, dictionary):
        program = _every_kind(dictionary)
        expected = _every_kind(dictionary, "_mm256_add_epi16", lanes=16)
        expected_right = expected.args[1]
        # The rotate amount scales with the lanes.
        expected = SOp(
            expected.op,
            expected.binding,
            (
                expected.args[0],
                SSwizzle("rotate_right", expected_right.args, 16, 256, 4),
            ),
            (),
            None,
            256,
        )
        assert scale_up_program(program, 2) == expected

    def test_scale_up_refuses_below_native_width(self, dictionary):
        program = _sop(dictionary, "_mm_add_epi16", (
            SInput("a", 8, 16), SInput("b", 8, 16)
        ))
        down = scale_down_program(program, 4)
        assert down is not None
        assert scale_up_program(down, 4) == program
        # Half-way up is still below _mm_add_epi16's native 128 bits.
        assert scale_up_program(down, 2) is None

    def test_scale_up_refuses_missing_sibling(self, dictionary):
        # No x86 add_epi16 is 2048 bits wide.
        assert scale_up_program(_every_kind(dictionary), 16) is None

    def test_scale_down(self, dictionary):
        program = _every_kind(dictionary)
        _op, binding = _binding(dictionary, "_mm_add_epi16")
        scaled = scaled_member_values(binding, 2)
        assert scaled is not None
        left = SConcat(
            SSlice(SInput("a", 4, 16), True),
            SSlice(SConstant(3, 4, 16), False),
        )
        right = SSwizzle(
            "rotate_right",
            (
                SSwizzle(
                    "interleave_lo",
                    (SHole("__h0", 4, 16), SConstant(5, 4, 16)),
                    16,
                    64,
                ),
            ),
            16,
            64,
            1,
        )
        expected = _sop(dictionary, "_mm_add_epi16", (left, right), scaled, 64)
        assert scale_down_program(program, 2) == expected

    def test_scale_down_refuses_indivisible(self, dictionary):
        # 8 lanes do not divide by 16, and the rotate amount 2 not by 4.
        program = _every_kind(dictionary)
        assert scale_down_program(program, 16) is None
        assert scale_down_program(program, 4) is None

    def test_factor_one_is_the_program(self, dictionary):
        program = _every_kind(dictionary)
        assert scale_up_program(program, 1) is program
        assert scale_down_program(program, 1) is program

    def test_instantiate(self, dictionary):
        program = _every_kind(dictionary)
        got = instantiate(program, {"__h0": 7})
        interleave = got.args[1].args[0]
        assert interleave.args[0] == SConstant(7, 8, 16)
        assert not any(isinstance(n, SHole) for n in got.walk())
        assert instantiate(got, {}) == got

    def test_normalize_program(self, dictionary):
        _op, binding = _binding(dictionary, "_mm_add_epi16")
        own = tuple(binding.member.values())
        program = _every_kind(dictionary, scaled_values=own)
        assert normalize_program(program) == _every_kind(dictionary)
        scaled = scaled_member_values(binding, 2)
        partial = _sop(dictionary, "_mm_add_epi16", (), scaled, 64)
        assert normalize_program(partial) == partial

    def test_program_consts_and_replace_consts_agree(self, dictionary):
        program = _every_kind(dictionary)
        assert _program_consts(program) == [
            SConstant(3, 8, 16), SConstant(5, 8, 16)
        ]
        got = _replace_consts(program, {1: SHole("__h1", 8, 16)})
        assert _program_consts(got) == [SConstant(3, 8, 16)]
        assert got.args[1].args[0].args == (
            SHole("__h0", 8, 16), SHole("__h1", 8, 16)
        )
        assert got.args[0] == program.args[0]

    def test_rename(self, dictionary):
        program = _every_kind(dictionary)
        got = _rename(program, {"a": "x", "unused": "y"})
        assert got.args[0].high_part.src == SInput("x", 8, 16)
        assert _rename(got, {"x": "a"}) == program


# The programs TestGoldenPrograms (tests/test_packed_eval.py) pins the
# search to: ``_mm256_add_epi16(%ld0, %ld1)`` and, per ISA, one
# instruction applied to two applications of itself.
GOLDEN = ("_mm512_avg_epu8", "_mm512_max_epu8", "V6_vavgubrnd", "V6_vmaxub",
          "vrhaddq_u8", "vmaxq_u8", "vaaddu_vv_u8m2", "vmaxu_vv_u8m2")


def _golden_programs(dictionary):
    programs = []
    programs.append(_sop(dictionary, "_mm256_add_epi16", (
        SInput("ld0", 16, 16), SInput("ld1", 16, 16)
    )))
    for name in GOLDEN:
        _op, binding = _binding(dictionary, name)
        ew = binding.spec.attributes["elem_width"]
        lanes = binding.spec.output_width // ew
        leaves = [SInput(f"ld{i}", lanes, ew) for i in range(4)]
        inner = [_sop(dictionary, name, leaves[i:i + 2]) for i in (0, 2)]
        program = _sop(dictionary, name, inner)
        assert program.describe() == (
            f"{name}({name}(%ld0, %ld1), {name}(%ld2, %ld3))"
        )
        programs.append(program)
    return programs


def test_golden_programs_round_trip(dictionary):
    """Scaling down then up gives the program back, on every factor it
    scales down by."""
    pairs = 0
    for program in _golden_programs(dictionary):
        for factor in FACTORS:
            down = scale_down_program(program, factor)
            if down is None:
                continue
            pairs += 1
            assert scale_up_program(down, factor) == normalize_program(program)
    assert pairs >= 2 * len(GOLDEN)


class TestWindowKeyCodec:
    def test_every_kernel_window_round_trips(self):
        seen = 0
        for benchmark in all_benchmarks():
            for isa in supported_isas():
                for kernel in benchmark.lower(isa):
                    for window in (
                        kernel.window, rewrite_broadcasts(kernel.window)
                    ):
                        for sub in window.walk():
                            key = canonical_key(sub, isa)
                            _isa, parsed = parse_window(key)
                            assert _isa == isa
                            assert canonical_key(parsed, isa) == key
                            seen += 1
        assert seen > 10_000

    def test_shuffle_window_is_refused(self):
        window = hir.HShuffle(hir.HLoad("a", 8, 16), (1, 0, 3, 2))
        with pytest.raises(KeyParseError):
            parse_window(canonical_key(window, "x86"))

    def test_malformed_keys_are_refused(self):
        for key in ("x86", "x86:", "x86:(load in0 8", "x86:(HBin add)"):
            with pytest.raises(KeyParseError):
                parse_window(key)
