"""Tests for Hydride IR: AST, interpretation, lowering, transforms."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autollvm import build_dictionary
from repro.bitvector import BitVector, bv, splat
from repro.hydride_ir import (
    BvBinOp,
    BvCast,
    BvCmp,
    BvConcat,
    BvConst,
    BvExtract,
    BvIte,
    BvVar,
    ForConcat,
    Input,
    SemanticsFunction,
    iconst,
    interpret,
    iparam,
    ivar,
    pretty,
    to_term,
)
from repro.hydride_ir.indexexpr import IBin, IConst, normalize_affine, simplify_index
from repro.hydride_ir.compile import compile_semantics
from repro.hydride_ir.interp import (
    SemanticsError,
    compute_width,
    resolved_input_widths,
)
from repro.isa.registry import load_isa, supported_isas
from repro.hydride_ir.transforms import canonicalize, propagate_constants, reroll
from repro.smt.eval import evaluate
from repro.synthesis.program import (
    SInput,
    SOp,
    apply_node,
    make_packed_applier,
    program_to_term,
    sop_applier,
)
from repro.synthesis.scale import scaled_member_values


def _simd_add(count: int, elem: int) -> SemanticsFunction:
    """Unrolled element-wise add, the raw parser-output shape."""
    parts = []
    for i in range(count):
        low = iconst(i * elem)
        parts.append(
            BvBinOp(
                "bvadd",
                BvExtract(BvVar("a"), low, iconst(elem)),
                BvExtract(BvVar("b"), low, iconst(elem)),
            )
        )
    width = iconst(count * elem)
    return SemanticsFunction(
        "add", (Input("a", width), Input("b", width)), {}, BvConcat(tuple(parts))
    )


class TestIndexExpr:
    def test_arithmetic_sugar(self):
        e = iparam("p") * 3 + 5
        assert e.evaluate({"p": 4}) == 17

    def test_folding(self):
        assert simplify_index(iconst(2) + iconst(3)) == IConst(5)
        assert simplify_index(iparam("p") * 1) == iparam("p")
        assert simplify_index(iparam("p") + 0) == iparam("p")

    def test_unbound_param(self):
        with pytest.raises(KeyError):
            iparam("p").evaluate({})

    def test_params_and_ivars_collected(self):
        e = iparam("p") + ivar("i") * 2
        assert e.params() == {"p"}
        assert e.ivars() == {"i"}

    def test_normalize_affine_orders_terms(self):
        lane, k = ivar("lane"), ivar("k")
        messy = (iconst(64) + lane * 128) + k * 16
        tidy = normalize_affine(messy)
        # var terms first (appearance order), constant last.
        assert isinstance(tidy, IBin) and tidy.op == "+"
        assert tidy.right == IConst(64)
        assert tidy.evaluate({"lane": 2, "k": 3}) == messy.evaluate({"lane": 2, "k": 3})

    def test_normalize_affine_drops_zero(self):
        lane = ivar("lane")
        assert normalize_affine(lane * 8 + 0) == IBin("*", lane, IConst(8))

    def test_normalize_merges_coefficients(self):
        i = ivar("i")
        merged = normalize_affine(i * 3 + i * 5)
        assert merged.evaluate({"i": 2}) == 16

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 7))
    def test_normalize_preserves_value(self, c1, c2, iv):
        i = ivar("i")
        expr = (i * c1 + 7) + (i * c2 - 3)
        assert normalize_affine(expr).evaluate({"i": iv}) == expr.evaluate({"i": iv})


class TestInterp:
    def test_simd_add(self):
        func = _simd_add(4, 8)
        out = interpret(func, {"a": bv(0x04030201, 32), "b": bv(0x01010101, 32)})
        assert out.value == 0x05040302

    def test_forconcat_lane_order(self):
        # dst[i] = i-th 8-bit slice of a: identity function.
        body = ForConcat(
            "i", iconst(4), BvExtract(BvVar("a"), ivar("i") * 8, iconst(8))
        )
        func = SemanticsFunction("id", (Input("a", iconst(32)),), {}, body)
        assert interpret(func, {"a": bv(0xDEADBEEF, 32)}).value == 0xDEADBEEF

    def test_missing_input(self):
        with pytest.raises(SemanticsError):
            interpret(_simd_add(2, 8), {"a": bv(0, 16)})

    def test_width_mismatch(self):
        with pytest.raises(SemanticsError):
            interpret(_simd_add(2, 8), {"a": bv(0, 8), "b": bv(0, 16)})

    def test_out_of_range_extract(self):
        body = BvExtract(BvVar("a"), iconst(12), iconst(8))
        func = SemanticsFunction("bad", (Input("a", iconst(16)),), {}, body)
        with pytest.raises(SemanticsError):
            interpret(func, {"a": bv(0, 16)})

    def test_parameterized_semantics(self):
        elem = iparam("ew")
        body = ForConcat(
            "i",
            iparam("n"),
            BvBinOp(
                "bvadd",
                BvExtract(BvVar("a"), ivar("i") * elem, elem),
                BvExtract(BvVar("b"), ivar("i") * elem, elem),
            ),
        )
        func = SemanticsFunction(
            "padd",
            (Input("a", iparam("n") * elem), Input("b", iparam("n") * elem)),
            {"n": 2, "ew": 8},
            body,
        )
        out = interpret(func, {"a": bv(0x0102, 16), "b": bv(0x0101, 16)})
        assert out.value == 0x0203
        # Same semantics at different parameters.
        out32 = interpret(
            func, {"a": bv(0x00010002, 32), "b": bv(0x00010001, 32)},
            params={"n": 2, "ew": 16},
        )
        assert out32.value == 0x00020003

    def test_to_term_matches_interpret(self):
        func = canonicalize(_simd_add(4, 8))
        term = to_term(func)
        env = {"a": bv(0x11223344, 32), "b": bv(0x01020304, 32)}
        assert evaluate(term, env).value == interpret(func, env).value

    def test_to_term_rename(self):
        func = canonicalize(_simd_add(2, 8))
        term = to_term(func, rename={"a": "x0", "b": "x1"})
        assert set(term.variables()) == {"x0", "x1"}

    def test_compute_width(self):
        func = _simd_add(4, 8)
        assert compute_width(func.body, {}, {"a": 32, "b": 32}) == 32


def _register_patterns(rng: random.Random, width: int, elem: int) -> list[int]:
    """Boundary registers, then seeded random ones."""
    lanes = max(width // elem, 1)
    ones = (1 << width) - 1
    alternating = sum(
        ((1 << elem) - 1) << (lane * elem) for lane in range(0, lanes, 2)
    )
    return [
        0,
        ones,
        splat(1 << (elem - 1), lanes, elem) & ones,  # sign bit set per lane
        alternating & ones,
        ~alternating & ones,
    ] + [rng.getrandbits(width) for _ in range(4)]


def _outcome(thunk):
    """The thunk's value, or None when it rejects its input."""
    try:
        return thunk()
    except Exception:
        return None


def _assert_compiled_matches_interpreter(func, params, fixed, elem, rng) -> bool:
    """False when the compiler declined; otherwise the compiled form must
    equal ``interpret`` on every pattern."""
    compiled = compile_semantics(func, params, fixed)
    if compiled is None:
        return False
    widths = resolved_input_widths(func, params)
    registers = [i.name for i in func.inputs if i.name not in fixed]
    columns = [_register_patterns(rng, widths[name], elem) for name in registers]
    immediates = {name: BitVector(value, widths[name]) for name, value in fixed.items()}
    for row in zip(*columns):
        env = {name: BitVector(value, widths[name]) for name, value in zip(registers, row)}
        expected = interpret(func, {**env, **immediates}, params).value
        assert compiled(list(row)) == expected, (func.name, compiled.source)
    return True


def _elem_width(spec) -> int:
    elem = spec.attributes.get("elem_width")
    return elem if isinstance(elem, int) and elem > 0 else 8


class TestCompiledSemantics:
    """``compile_semantics`` against its oracle, ``interpret``."""

    @pytest.mark.parametrize("isa", supported_isas())
    def test_catalog_specs_at_own_parameters(self, isa):
        loaded = load_isa(isa)
        rng = random.Random(f"compiled-{isa}")
        compiled = 0
        for name, func in loaded.semantics.items():
            fixed = {
                i.name: rng.choice((0, 1, 3, 7)) for i in func.inputs if i.is_immediate
            }
            compiled += _assert_compiled_matches_interpreter(
                func, func.params, fixed, _elem_width(loaded.spec(name)), rng
            )
        # Declining is always allowed, but not as the common case.
        assert compiled >= 0.95 * len(loaded.semantics)

    @pytest.mark.parametrize("isa", supported_isas())
    def test_dictionary_bindings_at_search_parameters(self, isa):
        """At the ×8-scaled parameters the search actually runs at, and
        through ``make_packed_applier`` — compiled where the argument
        widths are the declared ones, interpreter (and its rejection,
        which must be ``apply_node``'s) where one is not.  At the
        declared widths the node's solver term (``program_to_term``)
        must evaluate to the same value too."""
        dictionary = build_dictionary()
        rng = random.Random(f"compiled-scaled-{isa}")
        compiled = scaled_bindings = 0
        for op in dictionary.ops:
            for binding in op.bindings_for(isa):
                values = scaled_member_values(binding, 8)
                if values is None:
                    continue
                scaled_bindings += 1
                symbolic = binding.member.symbolic
                params = dict(zip(symbolic.param_names, values))
                func = symbolic.to_function(params)
                imms = (rng.choice((1, 2, 3)),) * symbolic.imm_arity()
                fixed = dict(
                    zip((i.name for i in func.inputs if i.is_immediate), imms)
                )
                compiled += _assert_compiled_matches_interpreter(
                    func, params, fixed, _elem_width(binding.spec), rng
                )
                widths = resolved_input_widths(func, params)
                declared = tuple(
                    widths[i.name] for i in func.inputs if not i.is_immediate
                )
                widened = (declared[0] * 2,) + declared[1:]
                node = SOp(
                    op, binding,
                    tuple(SInput(f"ld{i}", 1, w) for i, w in enumerate(declared)),
                    imms, values,
                )
                for arg_widths in (declared, widened):
                    regs = [rng.getrandbits(w) for w in arg_widths]
                    args = [BitVector(r, w) for r, w in zip(regs, arg_widths)]
                    packed = _outcome(
                        lambda: make_packed_applier(node, arg_widths)(regs)
                    )
                    reference = _outcome(lambda: apply_node(node, args).value)
                    assert packed == reference, (binding.spec.name, arg_widths)
                    if arg_widths == declared:
                        env = {kid.name: arg for kid, arg in zip(node.args, args)}
                        term = _outcome(
                            lambda: evaluate(program_to_term(node), env).value
                        )
                        assert term == reference, binding.spec.name
        assert scaled_bindings and compiled >= 0.95 * scaled_bindings

    @pytest.mark.parametrize(
        "body",
        (
            # statically inconsistent widths
            BvBinOp("bvadd", BvVar("a"), BvCast("zext", BvVar("b"), iconst(32))),
            # out-of-range extract, in the arm taken only when a != 0
            BvIte(
                BvCmp("bveq", BvVar("a"), BvConst(iconst(0), iconst(16))),
                BvVar("b"),
                BvExtract(BvVar("a"), iconst(12), iconst(16)),
            ),
            # zero-count loop
            ForConcat("i", iconst(0), BvVar("a")),
            # an operation the compiler has no template for
            BvBinOp("bvsdiv", BvVar("a"), BvVar("b")),
        ),
        ids=("mismatched-bvadd", "untaken-arm-extract", "zero-count-loop", "unknown-op"),
    )
    def test_declined_functions_fall_back_to_the_interpreter(self, body):
        width = iconst(16)
        func = SemanticsFunction("hand", (Input("a", width), Input("b", width)), {}, body)
        assert compile_semantics(func) is None
        # Through the enumerator's entry point: same values, same rejections.
        symbolic = SimpleNamespace(param_names=(), to_function=lambda params: func)
        binding = SimpleNamespace(member=SimpleNamespace(symbolic=symbolic))
        applier = sop_applier(binding, (), (), (16, 16))
        for a, b in ((0, 0x1234), (5, 0x1234), (0xFFFF, 3)):
            expected = _outcome(
                lambda: interpret(func, {"a": bv(a, 16), "b": bv(b, 16)}).value
            )
            assert _outcome(lambda: applier([a, b])) == expected
        if body.__class__ is BvIte:
            # Lazy: the bad arm only matters on inputs that take it.
            assert applier([0, 0x1234]) == 0x1234
            assert _outcome(lambda: applier([5, 0x1234])) is None

    def test_ite_arms_stay_lazy_in_generated_code(self):
        # Arms that need statements of their own (a shared operand bound
        # to a temporary) compile to an if/else block, not to eagerly
        # evaluated temporaries ahead of a select.
        def arm(op):
            return BvBinOp(op, BvBinOp("bvadd", BvVar("a"), BvVar("b")), BvVar("b"))

        body = BvIte(BvCmp("bvult", BvVar("a"), BvVar("b")), arm("bvumax"), arm("bvsmin"))
        width = iconst(8)
        func = SemanticsFunction("lazy", (Input("a", width), Input("b", width)), {}, body)
        compiled = compile_semantics(func)
        lines = compiled.source.splitlines()
        first_if = next(i for i, line in enumerate(lines) if line.lstrip().startswith("if "))
        assert all(" + " not in line for line in lines[:first_if])
        for a in range(0, 256, 7):
            for b in range(0, 256, 11):
                assert compiled([a, b]) == interpret(func, {"a": bv(a, 8), "b": bv(b, 8)}).value

    def test_inputs_are_masked_like_boxing(self):
        # A failed re-evaluation leaves -1 in a candidate's outputs;
        # BitVector masks it to all-ones and so must the compiled form.
        func = canonicalize(_simd_add(4, 8))
        compiled = compile_semantics(func)
        expected = interpret(func, {"a": bv(-1, 32), "b": bv(1, 32)}).value
        assert compiled([-1, 1]) == expected


class TestReroll:
    def test_simd_reroll(self):
        func = _simd_add(8, 8)
        rolled = reroll(func.body)
        assert isinstance(rolled, ForConcat)
        assert rolled.count == IConst(8)

    def test_reroll_preserves_semantics(self):
        func = _simd_add(8, 8)
        rolled = func.with_body(reroll(func.body))
        env = {"a": bv(0x0102030405060708, 64), "b": bv(0x1111111111111111, 64)}
        assert interpret(rolled, env).value == interpret(func, env).value

    def test_interleave_rerolls_with_grouping(self):
        # Alternating a/b slices: needs pair-grouped anti-unification.
        parts = []
        for i in range(4):
            parts.append(BvExtract(BvVar("a"), iconst(i * 8), iconst(8)))
            parts.append(BvExtract(BvVar("b"), iconst(i * 8), iconst(8)))
        rolled = reroll(BvConcat(tuple(parts)))
        assert isinstance(rolled, ForConcat)
        inner = rolled.body
        assert isinstance(inner, BvConcat) and len(inner.parts) == 2

    def test_non_affine_stays_unrolled(self):
        offsets = [0, 8, 24]  # not an affine progression, prime length
        parts = [
            BvExtract(BvVar("a"), iconst(low), iconst(8)) for low in offsets
        ]
        rolled = reroll(BvConcat(tuple(parts)))
        assert isinstance(rolled, BvConcat)

    def test_single_part_collapses(self):
        part = BvExtract(BvVar("a"), iconst(0), iconst(8))
        assert reroll(BvConcat((part,))) == part


class TestCanonicalize:
    def test_two_level_nest(self):
        func = canonicalize(_simd_add(8, 8))
        body = func.body
        assert isinstance(body, ForConcat)
        assert isinstance(body.body, ForConcat)
        assert body.body.count == IConst(1)

    def test_scalar_gets_nested(self):
        body = BvBinOp("bvadd", BvVar("a"), BvVar("b"))
        func = SemanticsFunction(
            "sadd", (Input("a", iconst(32)), Input("b", iconst(32))), {}, body
        )
        canonical = canonicalize(func)
        assert isinstance(canonical.body, ForConcat)
        assert isinstance(canonical.body.body, ForConcat)

    def test_canonicalize_preserves_semantics(self):
        func = _simd_add(4, 16)
        canonical = canonicalize(func)
        env = {"a": bv(0x123456789ABCDEF0, 64), "b": bv(0x1010101010101010, 64)}
        assert interpret(canonical, env).value == interpret(func, env).value

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1))
    def test_canonical_equals_unrolled(self, a, b):
        func = _simd_add(4, 8)
        canonical = canonicalize(func)
        env = {"a": bv(a, 32), "b": bv(b, 32)}
        assert interpret(canonical, env).value == interpret(func, env).value


class TestConstProp:
    def test_single_iteration_loop_removed(self):
        inner = BvExtract(BvVar("a"), iconst(0), iconst(8))
        body = ForConcat("i", iconst(1), inner)
        assert propagate_constants(body) == inner

    def test_cast_width_folded(self):
        body = BvCast("sext", BvVar("a"), iconst(2) * iconst(8))
        folded = propagate_constants(body)
        assert folded.new_width == IConst(16)


class TestPrinter:
    def test_pretty_mentions_structure(self):
        text = pretty(canonicalize(_simd_add(4, 8)))
        assert "for-concat" in text
        assert "bvadd" in text
        assert "%a" in text

    def test_pretty_shows_params(self):
        func = SemanticsFunction(
            "f", (Input("a", iparam("w")),), {"w": 32}, BvVar("a")
        )
        assert "w=32" in pretty(func)
