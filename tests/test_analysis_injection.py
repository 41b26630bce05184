"""Seeded-defect tests: each known bug class must trip its exact rule.

Every test corrupts a well-formed artifact in one specific way and
asserts the checker reports exactly the matching rule ID, covering wrong
widths, lane inconsistency, out-of-range shifts, slices out of bounds
(Hydride IR) and malformed intrinsic calls (AutoLLVM functions).
"""

import importlib

import pytest

from repro.analysis import Severity, check_llvm_function, check_semantics
from repro.autollvm import build_dictionary
from repro.autollvm.llvmir import (
    Function,
    ImmOperand,
    Instruction,
    IntType,
    Value,
    VectorType,
    VerificationError,
    verify_function,
)
from repro.hydride_ir.ast import (
    BvBinOp,
    BvCast,
    BvConcat,
    BvConst,
    BvExtract,
    BvVar,
    ForConcat,
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IBin, IConst, IVar
from repro.isa.registry import load_catalog
from repro.isa.x86.parser import x86_semantics


def _func(body, inputs=(("a", 16), ("b", 16)), out=None):
    decls = tuple(Input(n, IConst(w)) for n, w in inputs)
    return SemanticsFunction("t", decls, {}, body, out or IConst(0))


def _rules(diagnostics, severity=Severity.ERROR):
    return {d.rule for d in diagnostics if d.severity is severity}


class TestHydrideInjection:
    def test_wrong_width_binop(self):
        body = BvBinOp("bvadd", BvVar("a"), BvConst(IConst(1), IConst(8)))
        assert "hydride/binop-width" in _rules(check_semantics(_func(body)))

    def test_lane_inconsistency(self):
        # Body width grows with the iterator: 1, 2, 3, ... bits per lane.
        body = ForConcat(
            "i",
            IConst(4),
            BvExtract(BvVar("a"), IConst(0), IBin("+", IVar("i"), IConst(1))),
        )
        assert "hydride/lane-width" in _rules(check_semantics(_func(body)))

    def test_out_of_range_shift(self):
        body = BvBinOp(
            "bvshl", BvVar("a"), BvConst(IConst(20), IConst(16))
        )
        assert "hydride/shift-range" in _rules(check_semantics(_func(body)))

    def test_slice_out_of_bounds(self):
        body = BvExtract(BvVar("a"), IConst(12), IConst(8))
        assert "hydride/extract-bounds" in _rules(check_semantics(_func(body)))

    def test_undeclared_input(self):
        assert "hydride/unknown-input" in _rules(
            check_semantics(_func(BvVar("ghost")))
        )

    def test_unbound_symbol(self):
        body = BvExtract(BvVar("a"), IVar("nowhere"), IConst(8))
        assert "hydride/unbound-symbol" in _rules(check_semantics(_func(body)))

    def test_bad_op_name(self):
        body = BvBinOp("bvfrobnicate", BvVar("a"), BvVar("b"))
        assert "hydride/op-name" in _rules(check_semantics(_func(body)))

    def test_backwards_cast(self):
        body = BvCast("zext", BvVar("a"), IConst(8))
        assert "hydride/cast-width" in _rules(check_semantics(_func(body)))

    def test_output_width_mismatch(self):
        diagnostics = check_semantics(
            _func(BvVar("a")), declared_output_width=128
        )
        assert "hydride/output-width" in _rules(diagnostics)

    def test_nonpositive_loop_count(self):
        body = ForConcat("i", IConst(0), BvVar("a"))
        assert "hydride/loop-count" in _rules(check_semantics(_func(body)))

    def test_broken_canonicalize_pass(self, monkeypatch):
        """A constituent pass that corrupts the IR leaves damage the
        checker names in canonicalize's output.  The spec interleaves two
        registers, so its loops are unrolled and canonicalize re-rolls
        them."""
        canon_mod = importlib.import_module(
            "repro.hydride_ir.transforms.canonicalize"
        )
        spec = load_catalog("x86").by_name("_mm_unpacklo_epi8")
        func = x86_semantics(spec)
        assert isinstance(func.body, BvConcat)

        def broken_reroll(body):
            return BvConst(IConst(0), IConst(-4))  # nonsense replacement

        monkeypatch.setattr(canon_mod, "reroll", broken_reroll)
        result = canon_mod.canonicalize(func)
        assert "hydride/nonpositive-width" in _rules(check_semantics(result))


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86",))


class TestLlvmInjection:
    def test_bad_intrinsic_arity(self):
        ty = VectorType(8, 16)
        a = Value("a", ty)
        f = Function("w", [a])
        out = Value("r", VectorType(16, 16))
        f.add(Instruction(out, "autollvm.view.concat", [a]))  # needs 2 regs
        f.ret = out
        assert "llvm/op-arity" in _rules(check_llvm_function(f))

    def test_register_after_immediate(self):
        ty = VectorType(8, 16)
        a = Value("a", ty)
        f = Function("w", [a])
        out = Value("r", ty)
        f.add(
            Instruction(
                out, "autollvm.swizzle.interleave_single", [ImmOperand(16), a]
            )
        )
        f.ret = out
        assert "llvm/imm-position" in _rules(check_llvm_function(f))

    def test_immediate_not_i32(self):
        ty = VectorType(8, 16)
        a = Value("a", ty)
        f = Function("w", [a])
        out = Value("r", VectorType(8, 16))
        f.add(
            Instruction(
                out,
                "autollvm.swizzle.interleave_single",
                [a, ImmOperand(16, IntType(8))],
            )
        )
        f.ret = out
        assert "llvm/imm-type" in _rules(check_llvm_function(f))

    def test_slice_result_width(self):
        src = Value("a", VectorType(16, 16))
        f = Function("w", [src])
        out = Value("r", VectorType(16, 16))  # should be half the source
        f.add(Instruction(out, "autollvm.view.slice", [src, ImmOperand(0)]))
        f.ret = out
        assert "llvm/result-type" in _rules(check_llvm_function(f))

    def test_compute_arity_against_dictionary(self, dictionary):
        op = dictionary.by_target_instruction["_mm_add_epi16"]
        ty = VectorType(8, 16)
        a = Value("a", ty)
        f = Function("w", [a])
        out = Value("r", ty)
        f.add(Instruction(out, op.name, [a]))  # binary op called unary
        f.ret = out
        assert "llvm/op-arity" in _rules(check_llvm_function(f, dictionary))

    def test_verify_function_raises_with_diagnostics(self):
        f = Function("bad", [])
        ghost = Value("ghost", IntType(32))
        f.add(Instruction(Value("r", IntType(32)), "op", [ghost]))
        with pytest.raises(VerificationError) as info:
            verify_function(f)
        assert info.value.diagnostics
        assert info.value.diagnostics[0].rule == "llvm/undef-value"
