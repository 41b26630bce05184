"""Tests for the Halide frontend: DSL, lowering, and the vector IR."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvector import BitVector
from repro.bitvector.lanes import vector_from_ints
from repro.halide import ir as hir
from repro.halide.dsl import (
    Buffer,
    Func,
    Param,
    RDom,
    Var,
    cast,
    maximum,
    sat_cast,
    summation,
)
from repro.halide.lowering import LoweringError, lower_func
from repro.isa.registry import supported_isas
from repro.smt.eval import evaluate
from repro.synthesis.cache import window_env
from repro.workloads.registry import all_benchmarks

x, y = Var("x"), Var("y")


class TestDsl:
    def test_operator_typing(self):
        a = Buffer("a", 16)
        expr = a[x] + 3
        assert expr.elem_width == 16 and expr.signed

    def test_width_mismatch_needs_cast(self):
        a, b = Buffer("a", 8), Buffer("b", 16)
        with pytest.raises(TypeError):
            _ = a[x] + b[x]
        widened = cast(16, a[x]) + b[x]
        assert widened.elem_width == 16

    def test_unsigned_shift_is_logical(self):
        a = Buffer("a", 8, signed=False)
        assert (a[x] >> 1).op == "lshr"
        b = Buffer("b", 8)
        assert (b[x] >> 1).op == "ashr"

    def test_rdom_axes(self):
        r = RDom((0, 3), (1, 5))
        assert r.x.extent == 3
        assert r.y.min == 1


class TestLowering:
    def _simple(self, lanes=8):
        a, b = Buffer("a", 16), Buffer("b", 16)
        f = Func("f")
        f[x, y] = a[y, x] + b[y, x]
        f.vectorize(x, lanes)
        return lower_func(f, {"x": 64, "y": 4})

    def test_window_shape(self):
        kernel = self._simple()
        assert isinstance(kernel.window, hir.HBin)
        assert kernel.window.type == hir.htype(8, 16)
        assert len(kernel.loads) == 2

    def test_loop_nest(self):
        kernel = self._simple()
        loops = dict(kernel.loops)
        assert loops["x"] == 8  # 64 / 8 lanes
        assert loops["y"] == 4
        assert kernel.work_items == 32

    def test_unvectorized_rejected(self):
        f = Func("g")
        a = Buffer("a", 16)
        f[x] = a[x]
        with pytest.raises(LoweringError):
            lower_func(f, {"x": 64})

    def test_shifted_accesses_are_distinct_loads(self):
        a = Buffer("a", 8, signed=False)
        f = Func("blur")
        f[x, y] = maximum(maximum(a[y, x - 1], a[y, x]), a[y, x + 1])
        f.vectorize(x, 16)
        kernel = lower_func(f, {"x": 64, "y": 4})
        assert len(kernel.loads) == 3

    def test_scalar_access_becomes_broadcast(self):
        a, w = Buffer("a", 16), Buffer("w", 16)
        f = Func("scale")
        f[x, y] = a[y, x] * w[y]  # w[y] is invariant in x
        f.vectorize(x, 8)
        kernel = lower_func(f, {"x": 32, "y": 2})
        broadcasts = [
            n for n in kernel.window.walk() if isinstance(n, hir.HBroadcast)
        ]
        assert len(broadcasts) == 1

    def test_param_becomes_broadcast(self):
        a = Buffer("a", 16)
        scale = Param("scale", 16)
        f = Func("p")
        f[x] = a[x] * scale
        f.vectorize(x, 8)
        kernel = lower_func(f, {"x": 32})
        assert any(
            isinstance(n, hir.HBroadcast) and n.name == "scale"
            for n in kernel.window.walk()
        )

    def test_unrolled_reduction(self):
        a, b = Buffer("a", 16), Buffer("b", 16)
        r = RDom((0, 3))
        f = Func("dotish")
        f[x] = summation(r, a[x + r.x] * b[x + r.x])
        f.vectorize(x, 8)
        kernel = lower_func(f, {"x": 32})
        # Three unrolled terms summed with two adds.
        adds = [
            n for n in kernel.window.walk()
            if isinstance(n, hir.HBin) and n.op == "add"
        ]
        assert len(adds) == 2

    def test_vectorized_reduction_produces_reduce_add(self):
        a, bp = Buffer("a", 16), Buffer("bp", 16)
        r = RDom((0, 2))
        f = Func("dot")
        f[x, y] = summation(r, cast(32, a[y, r.x]) * cast(32, bp[x * 2 + r.x]))
        f.vectorize(x, 8).vectorize_reduction(r.x)
        kernel = lower_func(f, {"x": 32, "y": 2})
        reduces = [n for n in kernel.window.walk() if isinstance(n, hir.HReduceAdd)]
        assert len(reduces) == 1
        assert reduces[0].factor == 2
        # The A access is r-only: a tiled small load.
        concats = [n for n in kernel.window.walk() if isinstance(n, hir.HConcat)]
        assert len(concats) == 1

    def test_func_inlining(self):
        a = Buffer("a", 16)
        producer = Func("producer")
        producer[x] = a[x] + 1
        consumer = Func("consumer")
        consumer[x] = producer[x] * 2
        consumer.vectorize(x, 8)
        kernel = lower_func(consumer, {"x": 32})
        muls = [n for n in kernel.window.walk() if isinstance(n, hir.HBin) and n.op == "mul"]
        adds = [n for n in kernel.window.walk() if isinstance(n, hir.HBin) and n.op == "add"]
        assert muls and adds  # both stages fused into one window

    def test_saturating_cast_kind(self):
        a = Buffer("a", 16)
        f = Func("s")
        f[x] = sat_cast(8, a[x], signed=False)
        f.vectorize(x, 8)
        kernel = lower_func(f, {"x": 32})
        casts = [n for n in kernel.window.walk() if isinstance(n, hir.HCast)]
        assert casts[0].kind == "sat_u"


class TestVectorIr:
    def _env(self, **kwargs):
        return {k: v for k, v in kwargs.items()}

    def test_interpret_bin(self):
        a = hir.HLoad("a", 4, 8)
        b = hir.HLoad("b", 4, 8)
        expr = hir.HBin("add", a, b)
        env = {
            "a": vector_from_ints([1, 2, 3, 4], 8).bits,
            "b": vector_from_ints([10, 20, 30, 40], 8).bits,
        }
        out = hir.interpret(expr, env)
        assert vector_from_ints([11, 22, 33, 44], 8).bits.value == out.value

    def test_reduce_add(self):
        a = hir.HLoad("a", 4, 16)
        expr = hir.HReduceAdd(a, 2)
        env = {"a": vector_from_ints([1, 2, 3, 4], 16).bits}
        out = hir.interpret(expr, env)
        assert vector_from_ints([3, 7], 16).bits.value == out.value

    def test_cast_signedness(self):
        a = hir.HLoad("a", 2, 8)
        env = {"a": vector_from_ints([0x80, 0x7F], 8).bits}
        sext = hir.interpret(hir.HCast("sext", a, 16), env)
        zext = hir.interpret(hir.HCast("zext", a, 16), env)
        assert sext.extract(15, 0).signed == -128
        assert zext.extract(15, 0).value == 0x80

    def test_select(self):
        a = hir.HLoad("a", 2, 8)
        b = hir.HLoad("b", 2, 8)
        cond = hir.HCmp("gt_u", a, b)
        expr = hir.HSelect(cond, a, b)
        env = {
            "a": vector_from_ints([5, 1], 8).bits,
            "b": vector_from_ints([3, 9], 8).bits,
        }
        out = hir.interpret(expr, env)
        assert vector_from_ints([5, 9], 8).bits.value == out.value

    def test_slice_and_concat(self):
        a = hir.HLoad("a", 4, 8)
        env = {"a": vector_from_ints([1, 2, 3, 4], 8).bits}
        lo = hir.HSlice(a, 0, 2)
        hi = hir.HSlice(a, 2, 2)
        swapped = hir.HConcat((hi, lo))
        out = hir.interpret(swapped, env)
        assert vector_from_ints([3, 4, 1, 2], 8).bits.value == out.value

    def test_type_errors(self):
        a = hir.HLoad("a", 4, 8)
        b = hir.HLoad("b", 4, 16)
        with pytest.raises(ValueError):
            hir.HBin("add", a, b)
        with pytest.raises(ValueError):
            hir.HSlice(a, 3, 4)
        with pytest.raises(ValueError):
            hir.HReduceAdd(a, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
    def test_to_term_matches_interpreter(self, av, bval):
        a = hir.HLoad("a", 4, 16)
        b = hir.HLoad("b", 4, 16)
        expr = hir.HBin(
            "adds",
            hir.HCast("sat_s", hir.HBin("mul", a, b), 16),
            a,
        )
        env = {"a": BitVector(av, 64), "b": BitVector(bval, 64)}
        term = hir.to_term(expr)
        assert evaluate(term, env).value == hir.interpret(expr, env).value

    def test_loads_conflicting_types_rejected(self):
        a8 = hir.HLoad("a", 4, 8)
        a16 = hir.HLoad("a", 4, 16)
        expr = hir.HConcat((hir.HCast("zext", a8, 16), a16))
        with pytest.raises(ValueError):
            expr.loads()


class TestNodeValues:
    @pytest.mark.parametrize("isa", supported_isas())
    def test_agrees_with_interpreting_each_node(self, isa):
        """One walk gives every node the value interpreting that node as
        its own window gives, on every registered kernel's windows."""
        rng = random.Random(f"node-values-{isa}")
        checked = 0
        for benchmark in all_benchmarks():
            for kernel in benchmark.lower(isa):
                window = kernel.window
                env = window_env(window, rng)
                values = hir.node_values(window, env)
                nodes = {id(node): node for node in window.walk()}
                assert values.keys() == nodes.keys()
                for key, node in nodes.items():
                    assert values[key] == hir.interpret(node, env)
                    checked += 1
        assert checked > 1_000


class TestEndToEndLowering:
    def test_window_semantics_match_scalar_reference(self):
        """Interpret the lowered window and check it against a scalar
        evaluation of the same algorithm."""
        a, b = Buffer("a", 16), Buffer("b", 16)
        f = Func("f")
        f[x] = maximum(a[x] + b[x], a[x] - b[x])
        f.vectorize(x, 4)
        kernel = lower_func(f, {"x": 4})
        a_vals = [5, -3, 100, 7]
        b_vals = [2, 9, -50, 0]
        env = {
            "ld0": vector_from_ints(a_vals, 16).bits,
            "ld1": vector_from_ints(b_vals, 16).bits,
        }
        # Load naming order follows first appearance (a then b).
        out = hir.interpret(kernel.window, env)
        from repro.bitvector.lanes import Vector

        got = Vector(out, 16).to_ints_signed()
        expected = [max(av + bv_, av - bv_) for av, bv_ in zip(a_vals, b_vals)]
        assert got == expected


class TestCompilePacked:
    """``compile_packed`` against ``interpret``, the definition it is
    tested against: every operation and cast kind at every element
    width, and every sub-window of the registered kernels."""

    WIDTHS = (1, 8, 16, 32, 64)

    @staticmethod
    def lane_values(rng, width):
        """Boundary lanes (0, 1, sign bit, all ones) and random ones."""
        return [0, 1, 1 << (width - 1), (1 << width) - 1] + [
            rng.getrandbits(width) for _ in range(4)
        ]

    @staticmethod
    def agree(expr, registers):
        """Compiled and interpreted values of ``expr`` on ``registers``
        (name -> packed value); None when it has no compiled form."""
        compiled = hir.compile_packed(expr)
        loads = expr.loads()
        env = {
            name: BitVector(registers[name], load.bits)
            for name, load in loads.items()
        }
        if compiled is None:
            return None
        assert compiled([registers[name] for name in sorted(loads)]) == (
            hir.interpret(expr, env).value
        ), expr
        return True

    @staticmethod
    def pack(lanes, width):
        return sum(value << (i * width) for i, value in enumerate(lanes))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_binop_and_comparison(self, width):
        rng = random.Random(f"binops-{width}")
        values = self.lane_values(rng, width)
        # Every pair of boundary / random lanes, plus small shift amounts.
        left = [x for x in values for _ in values] + values
        right = [y for _ in values for y in values] + [
            rng.randrange(width + 2) for _ in values
        ]
        lanes = len(left)
        a, b = hir.HLoad("a", lanes, width), hir.HLoad("b", lanes, width)
        registers = {"a": self.pack(left, width), "b": self.pack(right, width)}
        for op in hir.H_BINOPS:
            assert self.agree(hir.HBin(op, a, b), registers), op
            assert self.agree(hir.HBin(op, hir.HConst(5, lanes, width), b), registers)
        for op in hir.H_CMPOPS:
            assert self.agree(hir.HCmp(op, a, b), registers), op
        select = hir.HSelect(hir.HCmp("lt_u", a, b), a, hir.HConst(3, lanes, width))
        assert self.agree(select, registers)

    @pytest.mark.parametrize("kind", hir.H_CASTS)
    def test_every_cast_kind(self, kind):
        rng = random.Random(f"casts-{kind}")
        for old in self.WIDTHS:
            lanes = self.lane_values(rng, old)
            registers = {"a": self.pack(lanes, old)}
            for new in self.WIDTHS:
                expr = hir.HCast(kind, hir.HLoad("a", len(lanes), old), new)
                compiled = self.agree(expr, registers)
                if kind == "trunc" and new > old:
                    # A widening trunc is ill-formed: the interpreter
                    # raises, so there is no compiled form.
                    assert compiled is None
                    with pytest.raises(ValueError):
                        hir.interpret(expr, {"a": BitVector(0, len(lanes) * old)})
                else:
                    assert compiled, (kind, old, new)

    def test_structural_nodes(self):
        a, b = hir.HLoad("a", 8, 16), hir.HLoad("b", 8, 16)
        registers = {"a": 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210, "b": 1 << 127}
        both = hir.HConcat((a, hir.HSlice(b, 2, 4), hir.HConst(7, 2, 16)))
        for expr in (
            both,
            hir.HReduceAdd(both, 2),
            hir.HShuffle(both, (13, 0, 0, 9, 5)),
            hir.HSlice(hir.HBin("mul", a, b), 3, 5),
            hir.HConst(0x1_0005, 4, 16),
        ):
            assert self.agree(expr, registers), expr

    def test_declines_what_it_cannot_compile(self):
        a = hir.HLoad("a", 4, 8)
        assert hir.compile_packed(hir.HBin("add", a, hir.HBroadcast("s", 4, 8))) is None
        assert hir.compile_packed(hir.HShuffle(a, (0, 4))) is None

    @pytest.mark.parametrize("isa", supported_isas())
    def test_every_kernel_sub_window(self, isa):
        """Each node of each registered kernel's window, as its own
        window; only nodes reading a broadcast scalar decline."""
        rng = random.Random(f"compile-packed-{isa}")
        checked = 0
        for benchmark in all_benchmarks():
            for kernel in benchmark.lower(isa):
                env = window_env(kernel.window, rng)
                registers = {name: value.value for name, value in env.items()}
                for node in kernel.window.walk():
                    compiled = self.agree(node, registers)
                    broadcast = any(
                        isinstance(n, hir.HBroadcast) for n in node.walk()
                    )
                    assert compiled is (None if broadcast else True)
                    checked += compiled is True
        assert checked > 1_000
