"""Unit tests for the shared pseudocode lowering core."""

import pytest

from repro.bitvector import bv
from repro.hydride_ir.ast import Input, SemanticsFunction
from repro.hydride_ir.indexexpr import IConst
from repro.hydride_ir.interp import interpret
from repro.isa.pseudo_core import (
    CORE_BUILTINS,
    PAssign,
    PBin,
    PCall,
    PCond,
    PDefine,
    PFor,
    PIf,
    PInt,
    PSlice,
    PVar,
    Program,
    PseudocodeError,
    lower_program,
)


def _lower(statements, inputs, out_width):
    body = lower_program(
        Program(tuple(statements)),
        inputs,
        "dst",
        out_width,
        CORE_BUILTINS.get,
    )
    func = SemanticsFunction(
        "t",
        tuple(Input(n, IConst(w)) for n, w in inputs.items()),
        {},
        body,
    )
    return func


class TestLowering:
    def test_full_register_assignment(self):
        func = _lower(
            [PAssign(PSlice("dst", PInt(7), PInt(0)),
                     PBin("+", PSlice("a", PInt(7), PInt(0)),
                          PSlice("b", PInt(7), PInt(0))))],
            {"a": 8, "b": 8},
            8,
        )
        assert interpret(func, {"a": bv(3, 8), "b": bv(4, 8)}).value == 7

    def test_loop_variable_scoping(self):
        # The loop var must not leak a stale binding outward.
        statements = [
            PFor("j", PInt(0), PInt(1), (
                PAssign(PSlice("dst", PBin("+", PBin("*", PVar("j"), PInt(8)), PInt(7)),
                               PBin("*", PVar("j"), PInt(8))),
                        PSlice("a", PBin("+", PBin("*", PVar("j"), PInt(8)), PInt(7)),
                               PBin("*", PVar("j"), PInt(8)))),
            )),
        ]
        func = _lower(statements, {"a": 16}, 16)
        assert interpret(func, {"a": bv(0xBEEF, 16)}).value == 0xBEEF

    def test_integer_temps(self):
        statements = [
            PAssign(PVar("i"), PBin("*", PInt(2), PInt(4))),
            PAssign(PSlice("dst", PBin("-", PVar("i"), PInt(1)), PInt(0)),
                    PSlice("a", PInt(7), PInt(0))),
        ]
        func = _lower(statements, {"a": 8}, 8)
        assert interpret(func, {"a": bv(0x5A, 8)}).value == 0x5A

    def test_bv_temps_sliceable(self):
        statements = [
            PAssign(PVar("t"), PSlice("a", PInt(15), PInt(0))),
            PAssign(PSlice("dst", PInt(7), PInt(0)),
                    PSlice("t", PInt(15), PInt(8))),
        ]
        func = _lower(statements, {"a": 16}, 8)
        assert interpret(func, {"a": bv(0xAB12, 16)}).value == 0xAB

    def test_define_saves_and_restores_scope(self):
        define = PDefine(
            "Helper", ("v",), (),
            PBin("+", PVar("v"), PVar("v")),
        )
        statements = [
            define,
            PAssign(PVar("v"), PInt(99)),  # an outer int temp named v
            PAssign(PSlice("dst", PInt(7), PInt(0)),
                    PCall("Helper", (PSlice("a", PInt(7), PInt(0)),))),
        ]
        func = _lower(statements, {"a": 8}, 8)
        assert interpret(func, {"a": bv(5, 8)}).value == 10

    def test_overlapping_assignment_rejected(self):
        statements = [
            PAssign(PSlice("dst", PInt(7), PInt(0)), PSlice("a", PInt(7), PInt(0))),
            PAssign(PSlice("dst", PInt(7), PInt(4)), PSlice("a", PInt(3), PInt(0))),
        ]
        with pytest.raises(PseudocodeError):
            _lower(statements, {"a": 8}, 8)

    def test_incomplete_coverage_rejected(self):
        statements = [
            PAssign(PSlice("dst", PInt(3), PInt(0)), PSlice("a", PInt(3), PInt(0))),
        ]
        with pytest.raises(PseudocodeError):
            _lower(statements, {"a": 8}, 8)

    def test_static_if_executes_one_branch(self):
        statements = [
            PIf(PBin(">", PInt(3), PInt(2)),
                (PAssign(PSlice("dst", PInt(7), PInt(0)),
                         PSlice("a", PInt(7), PInt(0))),),
                (PAssign(PSlice("dst", PInt(7), PInt(0)), PInt(0)),)),
        ]
        func = _lower(statements, {"a": 8}, 8)
        assert interpret(func, {"a": bv(0x42, 8)}).value == 0x42

    def test_dynamic_if_branches_must_align(self):
        cond = PBin("==", PSlice("k", PInt(0), PInt(0)), PInt(1))
        statements = [
            PIf(cond,
                (PAssign(PSlice("dst", PInt(7), PInt(0)),
                         PSlice("a", PInt(7), PInt(0))),),
                (PAssign(PSlice("dst", PInt(3), PInt(0)),
                         PSlice("a", PInt(3), PInt(0))),)),
        ]
        with pytest.raises(PseudocodeError):
            _lower(statements, {"a": 8, "k": 1}, 8)

    def test_ternary_with_int_branch_coerces(self):
        cond = PBin(">u", PSlice("a", PInt(7), PInt(0)), PInt(10))
        statements = [
            PAssign(
                PSlice("dst", PInt(7), PInt(0)),
                PCond(cond, PSlice("a", PInt(7), PInt(0)), PInt(0)),
            ),
        ]
        func = _lower(statements, {"a": 8}, 8)
        assert interpret(func, {"a": bv(50, 8)}).value == 50
        assert interpret(func, {"a": bv(5, 8)}).value == 0

    def test_unknown_function_rejected(self):
        statements = [
            PAssign(PSlice("dst", PInt(7), PInt(0)),
                    PCall("Mystery", (PSlice("a", PInt(7), PInt(0)),))),
        ]
        with pytest.raises(PseudocodeError):
            _lower(statements, {"a": 8}, 8)

    def test_cast_builtin_coerces_int_argument(self):
        statements = [
            PAssign(PSlice("dst", PInt(7), PInt(0)),
                    PBin("+", PCall("zero_extend", (PInt(3), PInt(8))),
                         PSlice("a", PInt(7), PInt(0)))),
        ]
        func = _lower(statements, {"a": 8}, 8)
        assert interpret(func, {"a": bv(4, 8)}).value == 7
