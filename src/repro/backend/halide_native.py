"""The production-Halide-style baseline: hand-written target backends.

This models the "separate, target-specific back ends generating
target-specific LLVM intrinsics" that production Halide maintains for
x86, HVX and ARM — a decade of hand-crafted pattern-matching rules.  The
rules below are priority-ordered matchers over the lowered window:

* dot-product rules (``pmaddwd``; HVX ``vdmpy``/``vrmpy`` including the
  multi-block wide-window ``vrmpy`` rule that beats Hydride on
  gaussian7x7; ARM ``sdot``/``vmull``+``vmlal``),
* saturating/averaging/narrowing rules mapping to native instructions,
* a generic per-node fallback.

Two deliberate historical gaps reproduce the paper's Hydride wins: the
x86 backend predates VNNI (no ``vpdpwssd`` — Table 3 rows 2/3), and the
HVX backend lowers saturating 32-bit accumulation through the long
``vmpyieoh``/``vmpyiewuh_acc`` sequence (Table 3 row 1) rather than
``vdmpyhvsat_acc``.
"""

from __future__ import annotations

import time

from repro.backend.common import CompiledKernel, broadcast_ops, memory_ops
from repro.backend.select import generic_op, op_table
from repro.halide import ir as hir
from repro.halide.lowering import LoweredKernel
from repro.machine.ops import MachineOp
from repro.isa.registry import isa_row


def _is_widening_mul(node: hir.HExpr, src_width: int, dst_width: int):
    """Match mul(ext(x), ext(y)) widening src->dst; returns (x, y) kinds."""
    if not (isinstance(node, hir.HBin) and node.op == "mul"):
        return None
    left, right = node.left, node.right
    if not (isinstance(left, hir.HCast) and isinstance(right, hir.HCast)):
        return None
    if left.new_elem_width != dst_width or right.new_elem_width != dst_width:
        return None
    if left.src.type.elem_width != src_width or right.src.type.elem_width != src_width:
        return None
    if left.kind not in ("sext", "zext") or right.kind not in ("sext", "zext"):
        return None
    return (left.kind, right.kind)


class HalideNativeCompiler:
    name = "halide"

    def compile(self, kernel: LoweredKernel, isa: str) -> CompiledKernel:
        start = time.time()
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
        matched = self._try_rules(node, isa, body)
        if matched:
            return
        for kid in node.children():
            self._lower(kid, isa, body)
        self._emit_node(node, isa, body)

    # -- target-specific pattern rules -------------------------------------

    def _try_rules(self, node: hir.HExpr, isa: str, body: list[MachineOp]) -> bool:
        table = op_table(isa)
        registers = max(1, node.type.bits // isa_row(isa).target.vector_bits)

        def emit(op: MachineOp | None, fallback_name: str, port: str = "mul") -> None:
            chosen = op if op is not None else generic_op(fallback_name, port, 4.0, 1.0)
            for _ in range(registers):
                body.append(chosen)

        if (
            isinstance(node, hir.HCast)
            and node.kind in ("sat_s", "sat_u")
            and node.new_elem_width == 8
        ):
            handled = self._try_requantize(node, isa, body, table, registers)
            if handled:
                return True
        # Wide-window weighted-sum rules (HVX only): production Halide's
        # multi-basic-block analysis maps >=4 byte taps onto ``vrmpy``
        # (the gaussian7x7 case the paper's Hydride cannot reach) and
        # 3-tap halfword sums onto ``vtmpy`` (the conv3x3a16 case).
        if isa == "hvx" and isinstance(node, hir.HBin) and node.op == "add":
            handled = self._try_wide_window(node, isa, body, table, registers)
            if handled:
                return True
        if isinstance(node, hir.HReduceAdd):
            inner = node.src
            # 2-way 16->32 dot product.
            if node.factor == 2 and _is_widening_mul(inner, 16, 32):
                if isinstance(inner, hir.HBin):
                    for kid in inner.children():
                        self._lower(kid.children()[0] if kid.children() else kid, isa, body)
                if isa == "x86":
                    emit(table.op("dot_madd", 32), "madd")  # pmaddwd
                    return True
                if isa == "hvx":
                    emit(table.op("dot_dmpy", 32), "vdmpy")
                    return True
                if isa == "arm":
                    # vmull low/high + pairwise accumulate.
                    emit(table.op("widening_mul", 32), "mull")
                    emit(table.op("widening_mul", 32), "mull")
                    emit(table.op("pairwise_paddl", 64) or generic_op("padd", "alu"), "padd", "alu")
                    return True
            # 4-way 8->32 dot product (and the wide-window rule: factors
            # beyond 4 are covered 4 taps at a time — the multi-block
            # pattern production Halide applies to gaussian7x7 on HVX).
            if node.factor >= 4 and _is_widening_mul(inner, 8, 32):
                if isa == "x86":
                    # Pre-VNNI idiom: pmaddubsw (8->16 pair dot) feeding
                    # pmaddwd (16->32 pair dot) — how production Halide
                    # covers 4-way byte reductions without vpdpbusd.
                    if isinstance(inner, hir.HBin):
                        for kid in inner.children():
                            self._lower(
                                kid.children()[0] if kid.children() else kid,
                                isa, body,
                            )
                    groups = node.factor // 4
                    for _ in range(max(1, groups) * registers):
                        emit(table.op("dot_maddubs", 16), "maddubs")
                        emit(table.op("dot_madd", 32), "madd")
                    return True
                if isinstance(inner, hir.HBin):
                    for kid in inner.children():
                        self._lower(kid.children()[0] if kid.children() else kid, isa, body)
                groups = (node.factor + 3) // 4
                if isa == "hvx":
                    for _ in range(groups):
                        emit(table.op("dot_rmpy_acc", 32) or table.op("dot_rmpy", 32), "vrmpy")
                    return True
                if isa == "arm":
                    for _ in range(groups):
                        emit(table.op("dot_4way", 32), "sdot")
                    return True
                return False
        return False

    def _try_wide_window(self, node, isa, body, table, registers) -> bool:
        """Match a flat add-chain of widening constant-weighted byte taps
        and cover it with 4-way (``vrmpy``) or 3-way (``vtmpy``) dot
        instructions, the way the production HVX backend does across
        basic blocks."""
        leaves: list[hir.HExpr] = []

        def flatten(expr: hir.HExpr) -> None:
            if isinstance(expr, hir.HBin) and expr.op == "add":
                flatten(expr.left)
                flatten(expr.right)
            else:
                leaves.append(expr)

        flatten(node)

        def tap_source_width(leaf: hir.HExpr) -> int | None:
            if not (isinstance(leaf, hir.HBin) and leaf.op == "mul"):
                return None
            for side in (leaf.left, leaf.right):
                if isinstance(side, hir.HCast) and side.kind in ("sext", "zext"):
                    if side.src.type.elem_width == 8:
                        return leaf.type.elem_width
            return None

        widths = [tap_source_width(leaf) for leaf in leaves]
        if any(w is None for w in widths) or len(leaves) < 3:
            return False
        out_width = widths[0]
        if any(w != out_width for w in widths):
            return False
        # Lower the tap inputs (loads are free; broadcasts pre-splat).
        for leaf in leaves:
            for side in leaf.children():
                inner = side.src if isinstance(side, hir.HCast) else side
                self._lower(inner, isa, body)
        from repro.backend.select import generic_op as _g

        if out_width >= 32 and len(leaves) >= 4:
            groups = (len(leaves) + 3) // 4
            op = table.op("dot_rmpy_acc", 32) or table.op("dot_rmpy", 32)
            for _ in range(groups * registers):
                body.append(op or _g("vrmpy", "mul", 4.0, 1.0))
            return True
        if out_width == 16 and len(leaves) >= 3:
            groups = (len(leaves) + 2) // 3
            for _ in range(groups * registers):
                body.append(_g("vtmpy", "mul", 4.0, 1.0))
            return True
        return False

    def _try_requantize(self, node, isa, body, table, registers) -> bool:
        """Quantized-kernel epilogue: sat-narrow(shift(widened-mul core)).

        Production backends recognise the TFLite requantization idiom and
        emit the tight interleave + fused-multiply + shift + pack sequence
        rather than lowering each cast and multiply separately."""
        src = node.src
        if not (isinstance(src, hir.HBin) and src.op in ("lshr", "ashr")):
            return False
        core = src.left
        muls = [
            n
            for n in core.walk()
            if isinstance(n, hir.HBin)
            and n.op == "mul"
            and n.type.elem_width == 16
            and isinstance(n.left, hir.HCast)
            and n.left.src.type.elem_width == 8
        ]
        if not muls or len(muls) > 2:
            return False
        # Lower whatever computes the narrow inputs (e.g. a saturating
        # subtract in softmax); loads/constants are free.
        for mul in muls:
            for operand in (mul.left, mul.right):
                inner = operand.src if isinstance(operand, hir.HCast) else operand
                self._lower(inner, isa, body)
        regs = max(1, core.type.bits // isa_row(isa).target.vector_bits)
        from repro.backend.select import generic_op as _g

        for _ in range(regs):
            if len(muls) == 2:
                body.append(_g("requant.interleave", "shuffle", 1.0, 1.0))
                op = table.op("dot_maddubs", 16)
                body.append(op or _g("requant.fma", "mul", 5.0, 1.0))
            else:
                body.append(_g("requant.widen", "shuffle", 1.0, 1.0))
                op = table.op("ew_mullo", 16)
                body.append(op or _g("requant.mul", "mul", 5.0, 1.0))
            body.append(_g("requant.shift", "alu", 1.0, 0.5))
            body.append(_g("requant.pack", "shuffle", 1.0, 1.0))
        return True

    # -- generic per-node emission ------------------------------------------

    def _emit_node(self, node: hir.HExpr, isa: str, body: list[MachineOp]) -> None:
        table = op_table(isa)
        target = isa_row(isa).target
        registers = max(1, node.type.bits // target.vector_bits)

        def emit(op: MachineOp | None, fallback: str, port: str = "alu") -> None:
            chosen = op if op is not None else generic_op(fallback, port)
            for _ in range(registers):
                body.append(chosen)

        if isinstance(node, (hir.HLoad, hir.HConst, hir.HBroadcast)):
            return
        if isinstance(node, (hir.HSlice, hir.HConcat)):
            return
        if isinstance(node, hir.HBin):
            family = {
                "add": "ew_add", "sub": "ew_sub",
                "min_s": "ew_min_s", "max_s": "ew_max_s",
                "min_u": "ew_min_u", "max_u": "ew_max_u",
                "and": "logic_and", "or": "logic_or", "xor": "logic_xor",
                "shl": "shift_imm_shl", "lshr": "shift_imm_lshr",
                "ashr": "shift_imm_ashr",
                "adds": "ew_adds", "addus": "ew_addus",
                "subs": "ew_subs", "subus": "ew_subus",
                "avg_u": "ew_avg" if isa == "x86" else "ew_avg_u_rnd",
                "havg_u": "ew_havg_u" if isa != "arm" else "ew_havg_u",
                "havg_s": "ew_havg_s",
            }.get(node.op)
            if node.op == "mul":
                # Element-wise low multiply.
                emit(table.op("ew_mullo", node.type.elem_width, node.type.bits), "mullo", "mul")
                return
            if family and isa == "arm":
                family = {
                    "ew_avg": "ew_ravg_u", "ew_avg_u_rnd": "ew_ravg_u",
                    "ew_havg_u": "ew_havg_u",
                }.get(family, family)
            if family and isa == "arm" and family.startswith("ew_havg"):
                family = "ew_havg_" + family[-1]
            op = table.op(family, node.type.elem_width, node.type.bits) if family else None
            if op is None and family:
                # ARM catalogs name families slightly differently.
                alt = {
                    "ew_adds": "ew_adds_s", "ew_subs": "ew_subs_s",
                    "ew_avg": "ew_ravg_u", "ew_avg_u_rnd": "ew_ravg_u",
                }.get(family)
                op = table.op(alt, node.type.elem_width, node.type.bits) if alt else None
            emit(op, node.op)
            return
        if isinstance(node, hir.HCmp):
            emit(table.op(f"cmp_{node.op}", node.left.type.elem_width), "cmp")
            return
        if isinstance(node, hir.HSelect):
            emit(table.op("blendv", 8) or table.op("predicated_mux", node.type.elem_width)
                 or table.op("logic_bsl", node.type.bits), "blend")
            return
        if isinstance(node, hir.HCast):
            if node.kind in ("sext", "zext") and node.new_elem_width > node.src.type.elem_width:
                family = "convert_s" if node.kind == "sext" else "convert_u"
                emit(table.op(family, node.new_elem_width)
                     or table.op("unpack_widen_s" if node.kind == "sext" else "unpack_widen_u",
                                 node.new_elem_width)
                     or table.op("widen_s" if node.kind == "sext" else "widen_u",
                                 node.new_elem_width),
                     "widen", "shuffle")
                return
            if node.kind == "trunc":
                emit(table.op("pack_e", node.new_elem_width)
                     or table.op("narrow_trunc", node.new_elem_width),
                     "narrow", "shuffle")
                return
            # Saturating narrow: native packs everywhere.
            family = "pack_s" if node.kind == "sat_s" else "pack_us"
            emit(table.op(family, node.new_elem_width)
                 or table.op("pack_sat_s" if node.kind == "sat_s" else "pack_sat_u",
                             node.new_elem_width)
                 or table.op("narrow_sat_s" if node.kind == "sat_s" else "narrow_sat_u",
                             node.new_elem_width),
                 "pack", "shuffle")
            return
        if isinstance(node, hir.HReduceAdd):
            # No dot rule fired: widen-mul already emitted; shuffle+add rounds.
            rounds = max(1, node.factor - 1)
            for _ in range(rounds):
                emit(generic_op("reduce.shuffle", "shuffle", 1.0, 1.0), "shuffle", "shuffle")
                emit(generic_op("reduce.add", "alu"), "add")
            return
        if isinstance(node, hir.HShuffle):
            emit(generic_op("vshuff", "shuffle", 1.0, 1.0), "shuffle", "shuffle")
            return
        raise TypeError(type(node).__name__)
