"""The Halide-LLVM-backend baseline: generic op-by-op SIMD lowering.

"Code generation and optimization support for LLVM IR is unable to
automatically generate efficient, complex non-SIMD and swizzle
instructions" — this backend models that: every Halide IR node lowers
independently, complex operations expand into sequences of simple SIMD
instructions, and no dot-product or specialized swizzle instruction is
ever emitted.

The per-target *maturity subsets* (``IsaRow.llvm_direct`` in
:mod:`repro.isa.registry`) encode how much of each ISA LLVM's
generic lowering actually reaches — rich for x86 (hence the paper's
modest 12% gap), poor for HVX (hence the ~2x gap: saturating/averaging/
narrowing ops all expand), intermediate for ARM (26%).
"""

from __future__ import annotations

import time

from repro.backend.common import (
    CompileError,
    CompiledKernel,
    broadcast_ops,
    memory_ops,
)
from repro.backend.select import generic_op, op_table
from repro.halide import ir as hir
from repro.halide.lowering import LoweredKernel
from repro.isa.registry import isa_row
from repro.machine.ops import MachineOp


def _direct_families(isa: str) -> frozenset[str]:
    """The op families LLVM lowers directly on ``isa`` (its registry row)."""
    try:
        return isa_row(isa).llvm_direct
    except ValueError as exc:
        raise CompileError(f"llvm backend: {exc}") from None


_BIN_FAMILY = {
    "add": "ew_add", "sub": "ew_sub", "mul": "ew_mullo",
    "min_s": "ew_min_s", "max_s": "ew_max_s",
    "min_u": "ew_min_u", "max_u": "ew_max_u",
    "and": "logic_and", "or": "logic_or", "xor": "logic_xor",
    "shl": "shift_imm_shl", "lshr": "shift_imm_lshr", "ashr": "shift_imm_ashr",
    "adds": "ew_adds", "addus": "ew_addus", "subs": "ew_subs",
    "subus": "ew_subus", "avg_u": "ew_avg", "havg_u": "ew_havg_u",
    "havg_s": "ew_havg_s",
}


class LlvmGenericCompiler:
    name = "llvm"

    def __init__(self) -> None:
        pass

    def lower_single_node(self, node: hir.HExpr, isa: str, body: list[MachineOp]) -> None:
        """Emit code for one node only (children assumed already lowered).

        The Hydride backend uses this for windows whose synthesis failed:
        they fall back to plain LLVM IR and get exactly this generic
        lowering — the paper's "simpler SIMD code" outcome."""
        self._emit_single(node, isa, body)

    def compile(self, kernel: LoweredKernel, isa: str) -> CompiledKernel:
        start = time.time()
        _direct_families(isa)  # an unknown ISA is a CompileError, up front
        target = isa_row(isa).target
        body: list[MachineOp] = []
        self._lower(kernel.window, isa, body)
        return CompiledKernel(
            kernel=kernel,
            target=isa,
            compiler=self.name,
            body=body + memory_ops(kernel, target) + broadcast_ops(kernel),
            compile_seconds=time.time() - start,
            live_values=len(kernel.loads) + max(1, len(body) // 2),
        )

    # ------------------------------------------------------------------

    def _lower(self, node: hir.HExpr, isa: str, body: list[MachineOp]) -> None:
        for kid in node.children():
            self._lower(kid, isa, body)
        self._emit_single(node, isa, body)

    def _emit_single(self, node: hir.HExpr, isa: str, body: list[MachineOp]) -> None:
        direct = _direct_families(isa)
        table = op_table(isa)
        registers = self._register_factor(node, isa)

        def emit(op: MachineOp | None, fallback: str, port: str = "alu") -> None:
            chosen = op if op is not None else generic_op(fallback, port)
            for _ in range(registers):
                body.append(chosen)

        if isinstance(node, (hir.HLoad, hir.HConst, hir.HBroadcast)):
            return
        if isinstance(node, hir.HBin):
            self._lower_bin(node, isa, direct, table, emit)
            return
        if isinstance(node, hir.HCmp):
            emit(generic_op(f"cmp.{node.op}", "alu"), "cmp")
            return
        if isinstance(node, hir.HSelect):
            emit(generic_op("blend", "alu"), "blend")
            return
        if isinstance(node, hir.HCast):
            self._lower_cast(node, isa, direct, emit)
            return
        if isinstance(node, hir.HReduceAdd):
            # No dot products here: widen-multiply is already lowered in
            # the child; the reduction becomes log2(factor) shuffle+add
            # rounds (the "simpler SIMD code" of the paper's Table 3).
            rounds = max(1, node.factor - 1)
            for _ in range(rounds):
                emit(generic_op("reduce.shuffle", "shuffle", 1.0, 1.0), "shuffle", "shuffle")
                emit(generic_op("reduce.add", "alu"), "add")
            return
        if isinstance(node, (hir.HSlice, hir.HConcat)):
            return  # subregister views
        if isinstance(node, hir.HShuffle):
            emit(generic_op("permute", "shuffle", 3.0, 1.0), "permute", "shuffle")
            return
        raise TypeError(type(node).__name__)

    def _lower_bin(self, node: hir.HBin, isa, direct, table, emit) -> None:
        op = node.op
        elem_width = node.type.elem_width
        if op in direct:
            family = _BIN_FAMILY[op]
            emit(table.op(family, elem_width, node.type.bits), f"{op}")
            return
        # Expansion sequences for ops outside the subset.
        if op in ("adds", "addus", "subs", "subus"):
            # widen both operands, plain op, clamp, narrow.
            for _ in range(2):
                emit(generic_op("expand.widen", "shuffle", 1.0, 1.0), "widen", "shuffle")
            emit(generic_op("expand.arith", "alu"), "arith")
            emit(generic_op("expand.clamp_min", "alu"), "clamp")
            emit(generic_op("expand.clamp_max", "alu"), "clamp")
            emit(generic_op("expand.narrow", "shuffle", 1.0, 1.0), "narrow", "shuffle")
            return
        if op in ("avg_u", "havg_u", "havg_s"):
            for _ in range(2):
                emit(generic_op("expand.widen", "shuffle", 1.0, 1.0), "widen", "shuffle")
            emit(generic_op("expand.add", "alu"), "add")
            if op == "avg_u":
                emit(generic_op("expand.round", "alu"), "round")
            emit(generic_op("expand.shift", "alu"), "shift")
            emit(generic_op("expand.narrow", "shuffle", 1.0, 1.0), "narrow", "shuffle")
            return
        if op in ("min_s", "max_s", "min_u", "max_u"):
            emit(generic_op("expand.cmp", "alu"), "cmp")
            emit(generic_op("expand.blend", "alu"), "blend")
            return
        emit(generic_op(f"expand.{op}", "alu"), op)

    def _lower_cast(self, node: hir.HCast, isa, direct, emit) -> None:
        if node.kind in ("sext", "zext"):
            if node.new_elem_width > node.src.type.elem_width:
                emit(generic_op("cast.widen", "shuffle", 3.0, 1.0), "widen", "shuffle")
            return
        if node.kind == "trunc":
            emit(generic_op("cast.narrow", "shuffle", 1.0, 1.0), "narrow", "shuffle")
            return
        # Saturating narrowing.
        if "sat_cast" in direct:
            emit(generic_op("cast.pack_sat", "shuffle", 1.0, 1.0), "pack", "shuffle")
            return
        emit(generic_op("cast.clamp_min", "alu"), "clamp")
        emit(generic_op("cast.clamp_max", "alu"), "clamp")
        emit(generic_op("cast.narrow", "shuffle", 1.0, 1.0), "narrow", "shuffle")

    @staticmethod
    def _register_factor(node: hir.HExpr, isa: str) -> int:
        """Ops on values wider than a register issue once per register."""
        return max(1, node.type.bits // isa_row(isa).target.vector_bits)
