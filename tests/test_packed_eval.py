"""Packed integer evaluation vs the lane-structured reference path.

The enumerator evaluates candidates on plain Python integers
(:mod:`repro.bitvector.packed` + :func:`make_packed_applier`); the
lane-structured reference evaluates per-lane :class:`BitVector` objects
through :func:`apply_node`.  These tests pin the packed path to the
reference on values and on rejection behaviour, and pin the programs
the search synthesizes to golden strings.
"""

import hashlib
import random

import pytest

from repro.autollvm import build_dictionary
from repro.bitvector import (
    BitVector,
    Vector,
    concat_pair,
    gather_lanes,
    slice_half,
    splat,
    swizzle_order,
    vector_from_elems,
)
from repro.backend.hydride import HydrideCompiler
from repro.halide import ir as hir
from repro.perf import global_counters
from repro.synthesis import CegisOptions, MemoCache, build_grammar, synthesize
from repro.synthesis.cegis import _Enumerator
from repro.synthesis.grammar import GrammarEntry
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SInput,
    SOp,
    SSlice,
    SSwizzle,
    apply_node,
    make_packed_applier,
    swizzle_applier,
    swizzle_elements,
)
from repro.synthesis.scale import scaled_member_values
from repro.workloads.registry import benchmark_named

PATTERNS_TWO_SOURCE = ("interleave_full", "interleave_lo", "interleave_hi",
                       "concat_lo", "concat_hi")
PATTERNS_ONE_SOURCE = ("interleave_single", "deinterleave_single",
                       "rotate_right")


@pytest.fixture(scope="module")
def dictionary():
    """The one dictionary every served job compiles against."""
    return build_dictionary()


def rand_reg(rng: random.Random, width: int) -> int:
    return rng.getrandbits(width)


def outcome(thunk):
    """The thunk's value, or None when it rejects its input — the
    enumerator drops a candidate on any exception, so only *whether* an
    application is rejected has to agree, not the exception type."""
    try:
        return thunk()
    except Exception:
        return None


class TestPackedPrimitives:
    def test_splat_matches_vector_from_elems(self):
        for value in (-1, 0, 1, 0x7F, 0x80, 0xAB):
            expected = vector_from_elems([BitVector(value, 8)] * 4).bits
            assert splat(value, 4, 8) == expected.value

    def test_slice_half_matches_extract(self):
        rng = random.Random(5)
        for _ in range(50):
            width = rng.choice((16, 32, 64, 128))
            reg = rand_reg(rng, width)
            bv = BitVector(reg, width)
            assert slice_half(reg, width, high=False) == bv.extract(
                width // 2 - 1, 0
            ).value
            assert slice_half(reg, width, high=True) == bv.extract(
                width - 1, width // 2
            ).value

    def test_concat_pair_matches_concat(self):
        rng = random.Random(6)
        for _ in range(50):
            hw, lw = rng.choice(((8, 8), (16, 16), (32, 16), (64, 64)))
            high, low = rand_reg(rng, hw), rand_reg(rng, lw)
            expected = BitVector(high, hw).concat(BitVector(low, lw))
            assert concat_pair(high, low, hw, lw) == expected.value

    @pytest.mark.parametrize("pattern", PATTERNS_TWO_SOURCE + PATTERNS_ONE_SOURCE)
    def test_gather_matches_swizzle_elements(self, pattern):
        rng = random.Random(hash(pattern) & 0xFFFF)
        lanes, ew = 8, 8
        width = lanes * ew
        nargs = 2 if pattern in PATTERNS_TWO_SOURCE else 1
        for amount in (0, 1, 3):
            regs = [rand_reg(rng, width) for _ in range(nargs)]
            vectors = [Vector(BitVector(r, width), ew) for r in regs]
            expected = vector_from_elems(
                swizzle_elements(pattern, vectors, amount)
            ).bits
            order = swizzle_order(pattern, lanes, amount)
            packed = gather_lanes(order, regs, [width] * nargs, ew)
            assert packed == expected.value
            if pattern != "rotate_right":
                break  # amount only matters for rotate_right

    def test_gather_rejects_out_of_range_lane(self):
        with pytest.raises(IndexError):
            gather_lanes(((0, 4),), [0], [32], 8)

    def test_gather_rejects_empty_order(self):
        with pytest.raises(ValueError):
            gather_lanes((), [0], [32], 8)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            swizzle_order("shuffle_mystery", 8)


def _rejection(thunk):
    """The thunk's value, or the type of the exception it raised."""
    try:
        return thunk()
    except Exception as exc:
        return type(exc)


class TestByteSwizzles:
    """``swizzle_applier`` gathers byte-aligned elements with one
    ``itemgetter`` over the sources' bytes; ``gather_lanes`` and
    ``swizzle_elements`` are the references it must equal."""

    @pytest.mark.parametrize("pattern", PATTERNS_TWO_SOURCE + PATTERNS_ONE_SOURCE)
    @pytest.mark.parametrize("elem_width", (8, 16, 32, 64, 4, 12))
    def test_equals_gather_lanes_and_swizzle_elements(self, pattern, elem_width):
        rng = random.Random(f"{pattern}-{elem_width}")
        nargs = 2 if pattern in PATTERNS_TWO_SOURCE else 1
        for lanes in (2, 4, 8):
            width = lanes * elem_width
            amounts = range(lanes + 1) if pattern == "rotate_right" else (0,)
            for amount in amounts:
                apply = swizzle_applier(pattern, elem_width, amount, (width,) * nargs)
                order = swizzle_order(pattern, lanes, amount)
                # -1 is what a failed re-evaluation leaves in a pool.
                samples = [[-1] * nargs, [0] * nargs] + [
                    [rand_reg(rng, width) for _ in range(nargs)] for _ in range(6)
                ]
                samples.append([rand_reg(rng, width), -1][:nargs])
                for regs in samples:
                    want = gather_lanes(order, regs, [width] * nargs, elem_width)
                    assert apply(regs) == want, (lanes, amount, regs)
                    vectors = [
                        Vector(BitVector(r, width), elem_width) for r in regs
                    ]
                    assert want == vector_from_elems(
                        swizzle_elements(pattern, vectors, amount)
                    ).bits.value

    @pytest.mark.parametrize("pattern", PATTERNS_TWO_SOURCE + PATTERNS_ONE_SOURCE)
    @pytest.mark.parametrize("elem_width", (8, 16, 32, 64))
    def test_out_of_range_orders_rejected_alike(self, pattern, elem_width):
        """A second source narrower than the first, and a one-lane
        register (whose halving patterns gather nothing), raise the
        same exception from the applier as from ``gather_lanes``."""
        nargs = 2 if pattern in PATTERNS_TWO_SOURCE else 1
        shapes = [(elem_width,) * nargs]
        if nargs == 2:
            shapes.append((4 * elem_width, 2 * elem_width))
        for widths in shapes:
            regs = [-1] * nargs
            order = swizzle_order(pattern, widths[0] // elem_width, 1)
            want = _rejection(
                lambda: gather_lanes(order, regs, list(widths), elem_width)
            )
            got = _rejection(
                lambda: swizzle_applier(pattern, elem_width, 1, widths)(regs)
            )
            assert got == want, widths

    def test_rejections_happen_when_the_applier_is_built(self):
        with pytest.raises(IndexError):
            swizzle_applier("interleave_hi", 8, 0, (32, 16))
        with pytest.raises(ValueError):
            swizzle_applier("concat_lo", 8, 0, (8, 8))
        with pytest.raises(ValueError):
            swizzle_applier("rotate_right", 16, 1, (40,))


class TestPackedAppliers:
    """make_packed_applier vs apply_node on every structural node kind."""

    def test_constant(self):
        node = SConstant(value=-3, lanes=8, elem_width=16)
        applier = make_packed_applier(node, ())
        assert applier([]) == apply_node(node, []).value

    def test_slice(self):
        rng = random.Random(11)
        src = SInput("ld0", lanes=8, elem_width=16)
        for high in (False, True):
            node = SSlice(src=src, high=high)
            applier = make_packed_applier(node, (src.bits,))
            for _ in range(20):
                reg = rand_reg(rng, src.bits)
                expected = apply_node(node, [BitVector(reg, src.bits)])
                assert applier([reg]) == expected.value

    def test_concat(self):
        rng = random.Random(12)
        a = SInput("ld0", lanes=4, elem_width=16)
        b = SInput("ld1", lanes=4, elem_width=16)
        node = SConcat(high_part=a, low_part=b)
        applier = make_packed_applier(node, (a.bits, b.bits))
        for _ in range(20):
            ra, rb = rand_reg(rng, a.bits), rand_reg(rng, b.bits)
            expected = apply_node(
                node, [BitVector(ra, a.bits), BitVector(rb, b.bits)]
            )
            assert applier([ra, rb]) == expected.value

    @pytest.mark.parametrize("pattern", PATTERNS_TWO_SOURCE + PATTERNS_ONE_SOURCE)
    def test_swizzle(self, pattern):
        rng = random.Random(13)
        lanes, ew = 8, 8
        nargs = 2 if pattern in PATTERNS_TWO_SOURCE else 1
        inputs = [SInput(f"ld{i}", lanes, ew) for i in range(nargs)]
        amount = 2 if pattern == "rotate_right" else 0
        order = swizzle_order(pattern, lanes, amount)
        node = SSwizzle(
            pattern=pattern,
            args=tuple(inputs),
            elem_width=ew,
            out_bits=len(order) * ew,
            amount=amount,
        )
        applier = make_packed_applier(node, tuple(i.bits for i in inputs))
        for _ in range(20):
            regs = [rand_reg(rng, i.bits) for i in inputs]
            expected = apply_node(
                node, [BitVector(r, i.bits) for r, i in zip(regs, inputs)]
            )
            assert applier(regs) == expected.value

    def test_input_has_no_applier(self):
        with pytest.raises(ValueError):
            make_packed_applier(SInput("ld0", 4, 8), ())

    @pytest.mark.parametrize("isa", ("x86", "hvx", "arm", "rvv"))
    def test_sop_sampled_bindings(self, dictionary, isa):
        """Instruction applications, at the member's own parameters and
        at the scaled ones the search runs at: equal values at the
        declared register widths, and the same rejections when an
        argument arrives at the wrong width."""
        rng = random.Random(f"sop-{isa}")
        bindings = [
            (op, binding)
            for op in dictionary.ops
            for binding in op.bindings_for(isa)
        ]
        evaluated = rejected = 0
        for op, binding in rng.sample(bindings, 40):
            imms = (rng.choice((1, 2, 3)),) * binding.member.symbolic.imm_arity()
            entry = GrammarEntry(op, binding, imms)
            scaled = scaled_member_values(binding, 4)
            for values in (None, scaled) if scaled else (None,):
                widths = tuple(entry.register_widths(values))
                node = SOp(
                    op,
                    binding,
                    tuple(SInput(f"ld{i}", 1, w) for i, w in enumerate(widths)),
                    imms,
                    values,
                    entry.output_bits(values),
                )
                halved = tuple(w // 2 for w in widths)
                widened = (widths[0] * 2,) + widths[1:]
                for arg_widths in (widths, halved, widened):
                    for _ in range(4):
                        regs = [rand_reg(rng, w) for w in arg_widths]
                        packed = outcome(
                            lambda: make_packed_applier(node, arg_widths)(regs)
                        )
                        reference = outcome(
                            lambda: apply_node(
                                node,
                                [BitVector(r, w) for r, w in zip(regs, arg_widths)],
                            ).value
                        )
                        assert packed == reference, (binding.spec.name, arg_widths)
                        if reference is None:
                            rejected += 1
                        else:
                            evaluated += 1
        # Both behaviours were actually exercised.
        assert evaluated and rejected


# The bench_e2e population (average_pool / max_pool on every ISA), each a
# two-level tree of one instruction: that instruction, and the number of
# candidates the search evaluated to find it (the ``repro.perf``
# ``candidates_evaluated`` delta).  Recorded at 2f9498e — the last commit
# whose enumerator tree-walked the semantics per candidate — and
# re-derived there before the compiled evaluator went in.  A changed
# count means the search changed, not just its speed.
POPULATION = {
    ("x86", "average_pool"): ("_mm512_avg_epu8", 95_492),
    ("x86", "max_pool"): ("_mm512_max_epu8", 84_854),
    ("hvx", "average_pool"): ("V6_vavgubrnd", 93_546),
    ("hvx", "max_pool"): ("V6_vmaxub", 91_386),
    ("arm", "average_pool"): ("vrhaddq_u8", 78_425),
    ("arm", "max_pool"): ("vmaxq_u8", 68_864),
    ("rvv", "average_pool"): ("vaaddu_vv_u8m2", 85_266),
    ("rvv", "max_pool"): ("vmaxu_vv_u8m2", 81_775),
}


class TestGoldenPrograms:
    """The programs the one remaining search synthesizes for a fixed
    CEGIS seed, and the effort it spends finding them."""

    def test_add_window(self, dictionary):
        window = hir.HBin(
            "add", hir.HLoad("ld0", 16, 16), hir.HLoad("ld1", 16, 16)
        )
        grammar = build_grammar(window, "x86", dictionary)
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=30))
        assert result.program.describe() == "_mm256_add_epi16(%ld0, %ld1)"

    @pytest.mark.parametrize("isa, name", sorted(POPULATION))
    def test_population(self, dictionary, isa, name):
        instruction, candidates = POPULATION[isa, name]
        compiler = HydrideCompiler(
            dictionary=dictionary,
            cache=MemoCache(),
            cegis=CegisOptions(timeout_seconds=120),
        )
        before = global_counters().candidates_evaluated
        described = [
            program.describe()
            for kernel in benchmark_named(name).lower(isa)
            for program in compiler.compile(kernel, isa).programs
        ]
        assert described == [
            f"{instruction}({instruction}(%ld0, %ld1), {instruction}(%ld2, %ld3))"
        ]
        assert global_counters().candidates_evaluated - before == candidates


def _pool_digest(pool) -> str:
    """Hash of the enumerator's pool, in pool order."""
    digest = hashlib.sha256()
    for c in pool:
        digest.update(
            repr((c.bits, tuple(c.outs), c.kind, c.cost, c.depth, c.landmark))
            .encode()
        )
    return digest.hexdigest()[:16]


# Pool digests after every depth round, and the candidates the whole
# compilation evaluated: the four average_pool windows cold_suite
# serves (one CEGIS iteration each) and x86 ``mul``, whose second
# iteration re-evaluates the pool on a counterexample and whose answer
# is a register pairing of two half-width results.  Recorded at
# c034290, before the enumerator's cap-aware pairing, quota-bounded
# argument pools and byte swizzles went in.  A changed digest means the
# search changed, not just its speed.
TRAJECTORY = {
    ("arm", "average_pool"): (["ff70534bbf20e2ac", "8705ea5041d29be1"], 78_425),
    ("hvx", "average_pool"): (["4513311faa4716c9", "dcdd6e2ae15bfd68"], 93_546),
    ("rvv", "average_pool"): (["63a12db0b8db38a2", "07be3a25b795b012"], 85_266),
    ("x86", "average_pool"): (["e5c373918b4237b6", "a0718b39afaa748f"], 95_492),
    ("x86", "mul"): (
        [
            "b8f33b363b5c362b", "dd84f3e0294f8d6d", "d6f99f7ba1b46d91",
            "8e395519a65ea6a5", "52d528512c6cb50f", "24332457c25254a1",
            "b8f33b363b5c362b", "dd84f3e0294f8d6d", "26b1439f2c048bd9",
        ],
        606_267,
    ),
}


class TestPoolTrajectory:
    """Every pool the search builds, not only the program it returns."""

    @pytest.mark.parametrize("isa, name", sorted(TRAJECTORY))
    def test_pool_after_every_round(self, dictionary, monkeypatch, isa, name):
        digests: list[str] = []
        grow = _Enumerator._grow

        def recording_grow(self):
            grow(self)
            digests.append(_pool_digest(self.pool))

        monkeypatch.setattr(_Enumerator, "_grow", recording_grow)
        compiler = HydrideCompiler(
            dictionary=dictionary,
            cache=MemoCache(),
            cegis=CegisOptions(timeout_seconds=120),
        )
        before = global_counters().candidates_evaluated
        for kernel in benchmark_named(name).lower(isa):
            compiler.compile(kernel, isa)
        candidates = global_counters().candidates_evaluated - before
        assert (digests, candidates) == TRAJECTORY[isa, name]
