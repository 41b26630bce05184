"""Synthetic ARM NEON reference: generates the ARM instruction catalog.

NEON intrinsics come in 64-bit (``vadd_s8``) and 128-bit (``vaddq_s8``)
forms, signed and unsigned, across 8/16/32(/64)-bit elements.  Beyond the
families shared with x86/HVX, this catalog includes ARM's *fused*
operations — multiply-accumulate (``vmla``), absolute-difference-
accumulate (``vaba``), shift-right-accumulate (``vsra``), pairwise
add-accumulate (``vpadal``), widening multiply-accumulate (``vmlal``) —
which the paper highlights as the reason ARM shares few equivalence
classes with the other two ISAs.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bitvector.bv import BitVector
from repro.bitvector.lanes import Vector, vector_from_elems
from repro.isa.spec import InstructionSpec, IsaCatalog, OperandSpec

FORMS = (64, 128)  # D and Q registers
_TYPE = {True: "s", False: "u"}


def _spec(name, asm, operands, output_width, pseudocode, family, latency,
          throughput, reference, **attributes) -> InstructionSpec:
    return InstructionSpec(
        name=name,
        isa="arm",
        asm=asm,
        operands=tuple(operands),
        output_width=output_width,
        pseudocode=pseudocode,
        extension="NEON",
        family=family,
        latency=latency,
        throughput=throughput,
        reference=reference,
        attributes=attributes,
    )


def _loop(count: int, body: str) -> str:
    return f"for e = 0 to {count - 1}\n    {body}\nendfor\n"


def _elem(name: str, ew: int, index: str = "e") -> str:
    return f"Elem[{name}, {index}, {ew}]"


def _q(form: int) -> str:
    return "q" if form == 128 else ""


def _ref_lanewise(ew: int, fn: Callable, names=("operand1", "operand2")):
    def run(env):
        vecs = [Vector(env[n], ew) for n in names]
        out = [fn(*(v.elem(i) for v in vecs)) for i in range(vecs[0].num_elems)]
        return vector_from_elems(out).bits

    return run


def _two(form: int) -> list[OperandSpec]:
    return [OperandSpec("operand1", form), OperandSpec("operand2", form)]


def _three(form: int) -> list[OperandSpec]:
    return [OperandSpec("acc", form)] + _two(form)


# ----------------------------------------------------------------------
# Element-wise arithmetic (both signed and unsigned intrinsic names)
# ----------------------------------------------------------------------


def _gen_arith(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        for ew in (8, 16, 32, 64):
            count = form // ew
            a, b = _elem("operand1", ew), _elem("operand2", ew)
            d = _elem("result", ew)
            sign_agnostic = [
                ("add", f"{a} + {b}", lambda x, y: x.bvadd(y), "ew_add", 3.0),
                ("sub", f"{a} - {b}", lambda x, y: x.bvsub(y), "ew_sub", 3.0),
            ]
            for op, rhs, fn, family, lat in sign_agnostic:
                for signed in (True, False):
                    name = f"v{op}{_q(form)}_{_TYPE[signed]}{ew}"
                    specs.append(
                        _spec(name, op, _two(form), form, _loop(count, f"{d} = {rhs}"),
                              family, lat, 0.5, _ref_lanewise(ew, fn),
                              elem_width=ew, simd=True))
            signed_pairs = [
                ("qadd", "SAddSat({a}, {b})", "UAddSat({a}, {b})",
                 lambda x, y: x.bvsaddsat(y), lambda x, y: x.bvuaddsat(y), "ew_adds"),
                ("qsub", "SSubSat({a}, {b})", "USubSat({a}, {b})",
                 lambda x, y: x.bvssubsat(y), lambda x, y: x.bvusubsat(y), "ew_subs"),
            ]
            for op, rhs_s, rhs_u, fn_s, fn_u, family in signed_pairs:
                for signed in (True, False):
                    rhs = (rhs_s if signed else rhs_u).format(a=a, b=b)
                    fn = fn_s if signed else fn_u
                    fam = family if signed else family.replace("s", "us", 1) + ""
                    name = f"v{op}{_q(form)}_{_TYPE[signed]}{ew}"
                    specs.append(
                        _spec(name, op, _two(form), form, _loop(count, f"{d} = {rhs}"),
                              f"{family}_{_TYPE[signed]}", 3.0, 0.5,
                              _ref_lanewise(ew, fn), elem_width=ew, simd=True))
            if ew == 64:
                continue  # remaining families stop at 32-bit elements
            for signed in (True, False):
                t = _TYPE[signed]
                half = "SHalvingAdd" if signed else "UHalvingAdd"
                rhalf = "SRHalvingAdd" if signed else "URHalvingAdd"
                fn_h = (lambda x, y: x.bvsavg(y)) if signed else (
                    lambda x, y: x.bvuavg(y))
                fn_rh = (lambda x, y: x.bvsavg(y, round_up=True)) if signed else (
                    lambda x, y: x.bvuavg(y, round_up=True))
                specs.append(
                    _spec(f"vhadd{_q(form)}_{t}{ew}", "hadd", _two(form), form,
                          _loop(count, f"{d} = {half}({a}, {b})"),
                          f"ew_havg_{t}", 3.0, 0.5, _ref_lanewise(ew, fn_h),
                          elem_width=ew, simd=True))
                specs.append(
                    _spec(f"vrhadd{_q(form)}_{t}{ew}", "rhadd", _two(form), form,
                          _loop(count, f"{d} = {rhalf}({a}, {b})"),
                          f"ew_ravg_{t}", 3.0, 0.5, _ref_lanewise(ew, fn_rh),
                          elem_width=ew, simd=True))
                # Halving subtract via explicit widening.
                wide = ew + 1
                ext = "SExt" if signed else "UExt"
                rhs = (f"Trunc((({ext}({a}, {wide}) - {ext}({b}, {wide}))"
                       f" >>> 1), {ew})")

                def fn_hsub(x, y, signed=signed, wide=wide, ew=ew):
                    wx = x.sext(wide) if signed else x.zext(wide)
                    wy = y.sext(wide) if signed else y.zext(wide)
                    return wx.bvsub(wy).bvashr(BitVector(1, wide)).trunc(ew)

                specs.append(
                    _spec(f"vhsub{_q(form)}_{t}{ew}", "hsub", _two(form), form,
                          _loop(count, f"{d} = {rhs}"), f"ew_hsub_{t}", 3.0,
                          0.5, _ref_lanewise(ew, fn_hsub), elem_width=ew,
                          simd=True))
                # min/max
                mn = "MinS" if signed else "MinU"
                mx = "MaxS" if signed else "MaxU"
                fn_min = (lambda x, y: x.bvsmin(y)) if signed else (
                    lambda x, y: x.bvumin(y))
                fn_max = (lambda x, y: x.bvsmax(y)) if signed else (
                    lambda x, y: x.bvumax(y))
                specs.append(
                    _spec(f"vmin{_q(form)}_{t}{ew}", "min", _two(form), form,
                          _loop(count, f"{d} = {mn}({a}, {b})"),
                          f"ew_min_{t}", 3.0, 0.5, _ref_lanewise(ew, fn_min),
                          elem_width=ew, simd=True))
                specs.append(
                    _spec(f"vmax{_q(form)}_{t}{ew}", "max", _two(form), form,
                          _loop(count, f"{d} = {mx}({a}, {b})"),
                          f"ew_max_{t}", 3.0, 0.5, _ref_lanewise(ew, fn_max),
                          elem_width=ew, simd=True))
                # Absolute difference and the fused accumulate form.
                mxd = f"{mx}({a}, {b}) - {mn}({a}, {b})"

                def fn_abd(x, y, signed=signed):
                    if signed:
                        return x.bvsmax(y).bvsub(x.bvsmin(y))
                    return x.bvumax(y).bvsub(x.bvumin(y))

                specs.append(
                    _spec(f"vabd{_q(form)}_{t}{ew}", "abd", _two(form), form,
                          _loop(count, f"{d} = {mxd}"), f"ew_abd_{t}", 3.0,
                          0.5, _ref_lanewise(ew, fn_abd), elem_width=ew,
                          simd=True))

                def fn_aba(z, x, y, signed=signed):
                    if signed:
                        return z.bvadd(x.bvsmax(y).bvsub(x.bvsmin(y)))
                    return z.bvadd(x.bvumax(y).bvsub(x.bvumin(y)))

                specs.append(
                    _spec(f"vaba{_q(form)}_{t}{ew}", "aba", _three(form), form,
                          _loop(count, f"{d} = {_elem('acc', ew)} + ({mxd})"),
                          f"ew_aba_{t}", 4.0, 1.0,
                          _ref_lanewise(ew, fn_aba,
                                        names=("acc", "operand1", "operand2")),
                          elem_width=ew, simd=True, fused=True))


def _gen_mul(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        for ew in (8, 16, 32):
            count = form // ew
            a, b = _elem("operand1", ew), _elem("operand2", ew)
            d = _elem("result", ew)
            acc = _elem("acc", ew)
            mul_rhs = f"Trunc(SExt({a}, {2 * ew}) * SExt({b}, {2 * ew}), {ew})"
            for signed in (True, False):
                t = _TYPE[signed]
                specs.append(
                    _spec(f"vmul{_q(form)}_{t}{ew}", "mul", _two(form), form,
                          _loop(count, f"{d} = {mul_rhs}"), "ew_mullo", 4.0,
                          1.0, _ref_lanewise(ew, lambda x, y: x.bvmul(y)),
                          elem_width=ew, simd=True))
                # Fused multiply-accumulate / multiply-subtract.
                specs.append(
                    _spec(f"vmla{_q(form)}_{t}{ew}", "mla", _three(form), form,
                          _loop(count, f"{d} = {acc} + {mul_rhs}"),
                          "ew_mla", 4.0, 1.0,
                          _ref_lanewise(
                              ew, lambda z, x, y: z.bvadd(x.bvmul(y)),
                              names=("acc", "operand1", "operand2")),
                          elem_width=ew, simd=True, fused=True))
                specs.append(
                    _spec(f"vmls{_q(form)}_{t}{ew}", "mls", _three(form), form,
                          _loop(count, f"{d} = {acc} - {mul_rhs}"),
                          "ew_mls", 4.0, 1.0,
                          _ref_lanewise(
                              ew, lambda z, x, y: z.bvsub(x.bvmul(y)),
                              names=("acc", "operand1", "operand2")),
                          elem_width=ew, simd=True, fused=True))
    # Widening multiplies (Q output from D inputs): vmull / vmlal / vmlsl.
    for ew in (8, 16, 32):
        count = 64 // ew
        dst_ew = 2 * ew
        for signed in (True, False):
            t = _TYPE[signed]
            ext = "SExt" if signed else "UExt"
            a = _elem("operand1", ew)
            b = _elem("operand2", ew)
            d = _elem("result", dst_ew)
            acc = _elem("acc", dst_ew)
            prod = f"{ext}({a}, {dst_ew}) * {ext}({b}, {dst_ew})"

            def fn_mull(x, y, signed=signed, dst_ew=dst_ew):
                wx = x.sext(dst_ew) if signed else x.zext(dst_ew)
                wy = y.sext(dst_ew) if signed else y.zext(dst_ew)
                return wx.bvmul(wy)

            specs.append(
                _spec(f"vmull_{t}{ew}", "mull", _two(64), 128,
                      _loop(count, f"{d} = {prod}"), "widening_mul", 4.0,
                      1.0, _ref_lanewise(ew, fn_mull), elem_width=dst_ew,
                      widening=True))
            for op, sym in (("mlal", "+"), ("mlsl", "-")):
                def fn_fused(z, x, y, signed=signed, dst_ew=dst_ew, sym=sym):
                    wx = x.sext(dst_ew) if signed else x.zext(dst_ew)
                    wy = y.sext(dst_ew) if signed else y.zext(dst_ew)
                    p = wx.bvmul(wy)
                    return z.bvadd(p) if sym == "+" else z.bvsub(p)

                def ref(env, fn_fused=fn_fused, ew=ew, dst_ew=dst_ew, count=count):
                    va = Vector(env["operand1"], ew)
                    vb = Vector(env["operand2"], ew)
                    vz = Vector(env["acc"], dst_ew)
                    out = [
                        fn_fused(vz.elem(i), va.elem(i), vb.elem(i))
                        for i in range(count)
                    ]
                    return vector_from_elems(out).bits

                specs.append(
                    _spec(f"v{op}_{t}{ew}", op,
                          [OperandSpec("acc", 128)] + _two(64), 128,
                          _loop(count, f"{d} = {acc} {sym} {prod}"),
                          f"widening_{op}", 4.0, 1.0, ref,
                          elem_width=dst_ew, widening=True, fused=True))
    # Saturating doubling multiply high half.
    for form in FORMS:
        for ew in (16, 32):
            count = form // ew
            wide = 2 * ew + 2
            a, b = _elem("operand1", ew), _elem("operand2", ew)
            d = _elem("result", ew)
            rhs = (f"SatS((SExt({a}, {wide}) * SExt({b}, {wide}) * 2)"
                   f" >>> {ew}, {ew})")

            def fn_qdmulh(x, y, ew=ew, wide=wide):
                prod = x.sext(wide).bvmul(y.sext(wide))
                doubled = prod.bvmul(BitVector(2, wide))
                return doubled.bvashr(BitVector(ew, wide)).saturate_to_signed(ew)

            specs.append(
                _spec(f"vqdmulh{_q(form)}_s{ew}", "qdmulh", _two(form), form,
                      _loop(count, f"{d} = {rhs}"), "ew_qdmulh", 4.0, 1.0,
                      _ref_lanewise(ew, fn_qdmulh), elem_width=ew, simd=True))


def _gen_unary(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        for ew in (8, 16, 32):
            count = form // ew
            a = _elem("operand1", ew)
            d = _elem("result", ew)
            cases = [
                ("vabs", f"Abs({a})", lambda x: x.bvabs(), "ew_abs"),
                ("vneg", f"0 - {a}", lambda x: x.bvneg(), "ew_neg"),
                ("vqabs", f"SatS(Abs(SExt({a}, {ew + 1})), {ew})",
                 lambda x, ew=ew: x.sext(ew + 1).bvabs().saturate_to_signed(ew),
                 "ew_qabs"),
                ("vqneg", f"SatS(0 - SExt({a}, {ew + 1}), {ew})",
                 lambda x, ew=ew: x.sext(ew + 1).bvneg().saturate_to_signed(ew),
                 "ew_qneg"),
            ]
            for op, rhs, fn, family in cases:
                specs.append(
                    _spec(f"{op}{_q(form)}_s{ew}", op[1:],
                          [OperandSpec("operand1", form)], form,
                          _loop(count, f"{d} = {rhs}"), family, 3.0, 0.5,
                          _ref_lanewise(ew, fn, names=("operand1",)),
                          elem_width=ew, simd=True))
        # popcount (bytes) and clz
        count = form // 8
        specs.append(
            _spec(f"vcnt{_q(form)}_u8", "cnt", [OperandSpec("operand1", form)],
                  form, _loop(count, f"{_elem('result', 8)} = CountBits({_elem('operand1', 8)})"),
                  "count_pop", 3.0, 0.5,
                  _ref_lanewise(8, lambda x: x.popcount(), names=("operand1",)),
                  elem_width=8, simd=True))


def _gen_logic(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        hi = form - 1
        cases = [
            ("vand", f"result[{hi}:0] = operand1[{hi}:0] & operand2[{hi}:0]",
             lambda env: env["operand1"].bvand(env["operand2"]), "logic_and"),
            ("vorr", f"result[{hi}:0] = operand1[{hi}:0] | operand2[{hi}:0]",
             lambda env: env["operand1"].bvor(env["operand2"]), "logic_or"),
            ("veor", f"result[{hi}:0] = operand1[{hi}:0] ^ operand2[{hi}:0]",
             lambda env: env["operand1"].bvxor(env["operand2"]), "logic_xor"),
            ("vbic", f"result[{hi}:0] = operand1[{hi}:0] & (~operand2[{hi}:0])",
             lambda env: env["operand1"].bvand(env["operand2"].bvnot()), "logic_bic"),
            ("vorn", f"result[{hi}:0] = operand1[{hi}:0] | (~operand2[{hi}:0])",
             lambda env: env["operand1"].bvor(env["operand2"].bvnot()), "logic_orn"),
        ]
        for op, body, fn, family in cases:
            specs.append(
                _spec(f"{op}{_q(form)}_u32", op[1:], _two(form), form,
                      body + "\n", family, 3.0, 0.33, fn, elem_width=form,
                      simd=True))
        specs.append(
            _spec(f"vmvn{_q(form)}_u32", "mvn", [OperandSpec("operand1", form)],
                  form, f"result[{hi}:0] = ~operand1[{hi}:0]\n", "logic_not",
                  3.0, 0.33, lambda env: env["operand1"].bvnot(),
                  elem_width=form, simd=True))
        # Bitwise select.
        body = (f"result[{hi}:0] = (operand1[{hi}:0] & mask[{hi}:0]) | "
                f"(operand2[{hi}:0] & (~mask[{hi}:0]))\n")
        specs.append(
            _spec(f"vbsl{_q(form)}_u32", "bsl",
                  [OperandSpec("mask", form)] + _two(form), form, body,
                  "logic_bsl", 3.0, 0.5,
                  lambda env: env["operand1"].bvand(env["mask"]).bvor(
                      env["operand2"].bvand(env["mask"].bvnot())),
                  elem_width=form, simd=True))


def _gen_shifts(specs: list[InstructionSpec]) -> None:
    imm = OperandSpec("shift", 8, is_immediate=True)
    for form in FORMS:
        for ew in (8, 16, 32, 64):
            count = form // ew
            a = _elem("operand1", ew)
            d = _elem("result", ew)
            acc = _elem("acc", ew)
            shift_arg = f"UExt(shift, {ew})"
            for signed in (True, False):
                t = _TYPE[signed]
                shr = ">>>" if signed else ">>"

                def ref_shr(env, ew=ew, signed=signed):
                    amount = env["shift"].resize_unsigned(ew)
                    return Vector(env["operand1"], ew).map_lanes(
                        lambda x: x.bvashr(amount) if signed else x.bvlshr(amount)
                    ).bits

                specs.append(
                    _spec(f"vshr{_q(form)}_n_{t}{ew}", "shr",
                          [OperandSpec("operand1", form), imm], form,
                          _loop(count, f"{d} = {a} {shr} {shift_arg}"),
                          f"shift_imm_{'ashr' if signed else 'lshr'}", 3.0,
                          0.5, ref_shr, elem_width=ew, simd=True))

                # Fused shift-right-accumulate.
                def ref_sra(env, ew=ew, signed=signed):
                    amount = env["shift"].resize_unsigned(ew)
                    va = Vector(env["operand1"], ew)
                    vz = Vector(env["acc"], ew)
                    out = []
                    for i in range(va.num_elems):
                        shifted = (va.elem(i).bvashr(amount) if signed
                                   else va.elem(i).bvlshr(amount))
                        out.append(vz.elem(i).bvadd(shifted))
                    return vector_from_elems(out).bits

                specs.append(
                    _spec(f"vsra{_q(form)}_n_{t}{ew}", "sra",
                          [OperandSpec("acc", form),
                           OperandSpec("operand1", form), imm], form,
                          _loop(count, f"{d} = {acc} + ({a} {shr} {shift_arg})"),
                          "shift_sra", 3.0, 1.0, ref_sra, elem_width=ew,
                          simd=True, fused=True))

            def ref_shl(env, ew=ew):
                amount = env["shift"].resize_unsigned(ew)
                return Vector(env["operand1"], ew).map_lanes(
                    lambda x: x.bvshl(amount)).bits

            specs.append(
                _spec(f"vshl{_q(form)}_n_s{ew}", "shl",
                      [OperandSpec("operand1", form), imm], form,
                      _loop(count, f"{d} = {a} << {shift_arg}"),
                      "shift_imm_shl", 3.0, 0.5, ref_shl, elem_width=ew,
                      simd=True))
    # Rounding and saturating shift variants.
    for form in FORMS:
        for ew in (8, 16, 32):
            count = form // ew
            a = _elem("operand1", ew)
            d = _elem("result", ew)
            shift_arg = f"UExt(shift, {ew})"
            wide = ew + 1
            for signed in (True, False):
                t = _TYPE[signed]
                ext = "SExt" if signed else "UExt"
                shr = ">>>" if signed else ">>"
                # vrshr: shift right with rounding (add 1 << (n-1) first).
                rhs = (f"Trunc(({ext}({a}, {wide}) + (UExt(1, {wide}) << "
                       f"(UExt(shift, {wide}) - UExt(1, {wide})))) "
                       f"{shr} {f'UExt(shift, {wide})'}, {ew})")

                def ref_rshr(env, ew=ew, wide=wide, signed=signed):
                    from repro.bitvector.bv import BitVector as BV

                    shift = env["shift"].resize_unsigned(wide)
                    one = BV(1, wide)
                    rounding = one.bvshl(shift.bvsub(one))

                    def per_lane(x):
                        wx = x.sext(wide) if signed else x.zext(wide)
                        total = wx.bvadd(rounding)
                        shifted = total.bvashr(shift) if signed else total.bvlshr(shift)
                        return shifted.trunc(ew)

                    return Vector(env["operand1"], ew).map_lanes(per_lane).bits

                specs.append(
                    _spec(f"vrshr{_q(form)}_n_{t}{ew}", "rshr",
                          [OperandSpec("operand1", form), imm], form,
                          _loop(count, f"{d} = {rhs}"), "shift_rshr", 3.0,
                          0.5, ref_rshr, elem_width=ew, simd=True))
            # vqshl_n: saturating left shift by immediate.
            rhs = f"SatS(SExt({a}, {2 * ew}) << UExt(shift, {2 * ew}), {ew})"

            def ref_qshl(env, ew=ew):
                amount = env["shift"].resize_unsigned(2 * ew)

                def per_lane(x):
                    return x.sext(2 * ew).bvshl(amount).saturate_to_signed(ew)

                return Vector(env["operand1"], ew).map_lanes(per_lane).bits

            specs.append(
                _spec(f"vqshl{_q(form)}_n_s{ew}", "qshl",
                      [OperandSpec("operand1", form), imm], form,
                      _loop(count, f"{d} = {rhs}"), "shift_qshl", 3.0, 0.5,
                      ref_qshl, elem_width=ew, simd=True))
    # Narrowing and widening moves.
    for ew in (16, 32, 64):
        narrow = ew // 2
        count = 64 // narrow
        a = _elem("operand1", ew)
        d = _elem("result", narrow)
        specs.append(
            _spec(f"vmovn_s{ew}", "movn", [OperandSpec("operand1", 128)], 64,
                  _loop(count, f"{d} = Trunc({a}, {narrow})"), "narrow_trunc",
                  3.0, 0.5,
                  _ref_lanewise(ew, lambda x, narrow=narrow: x.trunc(narrow),
                                names=("operand1",)),
                  elem_width=narrow, swizzle=True))
        for signed in (True, False):
            t = _TYPE[signed]
            sat = "SatS" if signed else "SatU"

            def fn_qmovn(x, narrow=narrow, signed=signed):
                if signed:
                    return x.saturate_to_signed(narrow)
                return x.saturate_to_unsigned(narrow)

            specs.append(
                _spec(f"vqmovn_{t}{ew}", "qmovn", [OperandSpec("operand1", 128)],
                      64, _loop(count, f"{d} = {sat}({a}, {narrow})"),
                      f"narrow_sat_{t}", 3.0, 0.5,
                      _ref_lanewise(ew, fn_qmovn, names=("operand1",)),
                      elem_width=narrow, swizzle=True))
    for ew in (8, 16, 32):
        wide = 2 * ew
        count = 64 // ew
        a = _elem("operand1", ew)
        d = _elem("result", wide)
        for signed in (True, False):
            t = _TYPE[signed]
            ext = "SExt" if signed else "UExt"

            def fn_movl(x, wide=wide, signed=signed):
                return x.sext(wide) if signed else x.zext(wide)

            specs.append(
                _spec(f"vmovl_{t}{ew}", "movl", [OperandSpec("operand1", 64)],
                      128, _loop(count, f"{d} = {ext}({a}, {wide})"),
                      f"widen_{t}", 3.0, 0.5,
                      _ref_lanewise(ew, fn_movl, names=("operand1",)),
                      elem_width=wide, swizzle=True))


def _gen_widening_add(specs: list[InstructionSpec]) -> None:
    """vaddl/vaddw/vsubl/vsubw and the narrowing vaddhn/vsubhn."""
    for ew in (8, 16, 32):
        wide = 2 * ew
        count = 64 // ew
        d = _elem("result", wide)
        for signed in (True, False):
            t = _TYPE[signed]
            ext = "SExt" if signed else "UExt"
            for op, sym in (("addl", "+"), ("subl", "-")):
                a = _elem("operand1", ew)
                b = _elem("operand2", ew)
                rhs = f"{ext}({a}, {wide}) {sym} {ext}({b}, {wide})"

                def fn_l(x, y, signed=signed, wide=wide, sym=sym):
                    wx = x.sext(wide) if signed else x.zext(wide)
                    wy = y.sext(wide) if signed else y.zext(wide)
                    return wx.bvadd(wy) if sym == "+" else wx.bvsub(wy)

                specs.append(
                    _spec(f"v{op}_{t}{ew}", op, _two(64), 128,
                          _loop(count, f"{d} = {rhs}"), f"widening_{op}",
                          3.0, 0.5, _ref_lanewise(ew, fn_l),
                          elem_width=wide, widening=True))
            for op, sym in (("addw", "+"), ("subw", "-")):
                a = _elem("operand1", wide)
                b = _elem("operand2", ew)
                rhs = f"{a} {sym} {ext}({b}, {wide})"

                def ref_w(env, signed=signed, wide=wide, ew=ew, sym=sym, count=count):
                    va = Vector(env["operand1"], wide)
                    vb = Vector(env["operand2"], ew)
                    out = []
                    for i in range(count):
                        wy = vb.elem(i).sext(wide) if signed else vb.elem(i).zext(wide)
                        out.append(va.elem(i).bvadd(wy) if sym == "+"
                                   else va.elem(i).bvsub(wy))
                    return vector_from_elems(out).bits

                specs.append(
                    _spec(f"v{op}_{t}{ew}", op,
                          [OperandSpec("operand1", 128), OperandSpec("operand2", 64)],
                          128, _loop(count, f"{d} = {rhs}"), f"widening_{op}",
                          3.0, 0.5, ref_w, elem_width=wide, widening=True))
        # vaddhn: add, keep the high half of each element (narrowing).
        a = _elem("operand1", wide)
        b = _elem("operand2", wide)
        d_n = _elem("result", ew)
        for op, sym in (("addhn", "+"), ("subhn", "-")):
            rhs = f"Trunc(({a} {sym} {b}) >> {ew}, {ew})"

            def fn_hn(x, y, ew=ew, sym=sym, wide=wide):
                total = x.bvadd(y) if sym == "+" else x.bvsub(y)
                return total.extract(wide - 1, ew)

            specs.append(
                _spec(f"v{op}_s{wide}", op, _two(128), 64,
                      _loop(count, f"{d_n} = {rhs}"), f"narrow_{op}", 3.0,
                      0.5, _ref_lanewise(wide, fn_hn), elem_width=ew,
                      swizzle=True))


def _gen_pairwise(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        for ew in (8, 16, 32):
            count = form // ew
            half = count // 2
            d = _elem("result", ew)
            # vpadd-style: pairwise add of the concatenation of the inputs.
            for op, mn_mx in (("padd", None), ("pmax", "max"), ("pmin", "min")):
                for signed in (True, False):
                    t = _TYPE[signed]
                    if op == "padd" and not signed:
                        continue  # sign-agnostic; ARM only names it by width
                    lines = []
                    for source_index, source in enumerate(("operand1", "operand2")):
                        x = _elem(source, ew, "2*e")
                        y = _elem(source, ew, "2*e+1")
                        if op == "padd":
                            rhs = f"{x} + {y}"
                        elif op == "pmax":
                            rhs = f"{'MaxS' if signed else 'MaxU'}({x}, {y})"
                        else:
                            rhs = f"{'MinS' if signed else 'MinU'}({x}, {y})"
                        target = _elem("result", ew,
                                       f"e + {half * source_index}")
                        lines.append(
                            f"for e = 0 to {half - 1}\n"
                            f"    {target} = {rhs}\nendfor"
                        )
                    body = "\n".join(lines) + "\n"

                    def ref(env, ew=ew, op=op, signed=signed, half=half):
                        va = Vector(env["operand1"], ew)
                        vb = Vector(env["operand2"], ew)
                        out = []
                        for source in (va, vb):
                            for i in range(half):
                                x, y = source.elem(2 * i), source.elem(2 * i + 1)
                                if op == "padd":
                                    out.append(x.bvadd(y))
                                elif op == "pmax":
                                    out.append(x.bvsmax(y) if signed else x.bvumax(y))
                                else:
                                    out.append(x.bvsmin(y) if signed else x.bvumin(y))
                        return vector_from_elems(out).bits

                    name = f"v{op}{_q(form)}_{t}{ew}"
                    specs.append(
                        _spec(name, op, _two(form), form, body,
                              f"pairwise_{op}", 3.0, 1.0, ref, elem_width=ew,
                              dot_product=(op == "padd")))
            # vpaddl / vpadal: pairwise long add (+ accumulate).
            wide = 2 * ew
            d_w = _elem("result", wide)
            for signed in (True, False):
                t = _TYPE[signed]
                ext = "SExt" if signed else "UExt"
                x = _elem("operand1", ew, "2*e")
                y = _elem("operand1", ew, "2*e+1")
                pair = f"{ext}({x}, {wide}) + {ext}({y}, {wide})"

                def ref_paddl(env, ew=ew, wide=wide, signed=signed, half=half):
                    va = Vector(env["operand1"], ew)
                    out = []
                    for i in range(half):
                        wx = (va.elem(2 * i).sext(wide) if signed
                              else va.elem(2 * i).zext(wide))
                        wy = (va.elem(2 * i + 1).sext(wide) if signed
                              else va.elem(2 * i + 1).zext(wide))
                        out.append(wx.bvadd(wy))
                    return vector_from_elems(out).bits

                specs.append(
                    _spec(f"vpaddl{_q(form)}_{t}{ew}", "paddl",
                          [OperandSpec("operand1", form)], form,
                          _loop(half, f"{d_w} = {pair}"), "pairwise_paddl",
                          3.0, 1.0, ref_paddl, elem_width=wide,
                          dot_product=True))

                def ref_padal(env, ew=ew, wide=wide, signed=signed, half=half):
                    va = Vector(env["operand1"], ew)
                    vz = Vector(env["acc"], wide)
                    out = []
                    for i in range(half):
                        wx = (va.elem(2 * i).sext(wide) if signed
                              else va.elem(2 * i).zext(wide))
                        wy = (va.elem(2 * i + 1).sext(wide) if signed
                              else va.elem(2 * i + 1).zext(wide))
                        out.append(vz.elem(i).bvadd(wx.bvadd(wy)))
                    return vector_from_elems(out).bits

                specs.append(
                    _spec(f"vpadal{_q(form)}_{t}{ew}", "padal",
                          [OperandSpec("acc", form), OperandSpec("operand1", form)],
                          form,
                          _loop(half, f"{d_w} = {_elem('acc', wide)} + {pair}"),
                          "pairwise_padal", 4.0, 1.0, ref_padal,
                          elem_width=wide, dot_product=True, fused=True))


def _gen_dot(specs: list[InstructionSpec]) -> None:
    """sdot/udot: 4-way 8-bit dot product accumulating into 32-bit."""
    for form in FORMS:
        count = form // 32
        for signed in (True, False):
            t = _TYPE[signed]
            ext = "SExt" if signed else "UExt"
            terms = " + ".join(
                f"{ext}({_elem('operand1', 8, f'4*e+{q}')}, 32) * "
                f"{ext}({_elem('operand2', 8, f'4*e+{q}')}, 32)"
                for q in range(4)
            )
            body = _loop(count, f"{_elem('result', 32)} = {_elem('acc', 32)} + {terms}")

            def ref(env, signed=signed, count=count):
                va = Vector(env["operand1"], 8)
                vb = Vector(env["operand2"], 8)
                vz = Vector(env["acc"], 32)
                out = []
                for i in range(count):
                    total = vz.elem(i)
                    for q in range(4):
                        x, y = va.elem(4 * i + q), vb.elem(4 * i + q)
                        wx = x.sext(32) if signed else x.zext(32)
                        wy = y.sext(32) if signed else y.zext(32)
                        total = total.bvadd(wx.bvmul(wy))
                    out.append(total)
                return vector_from_elems(out).bits

            specs.append(
                _spec(f"v{'s' if signed else 'u'}dot{_q(form)}_{t}32",
                      "dot", _three(form), form, body, "dot_4way", 4.0, 1.0,
                      ref, elem_width=32, dot_product=True, fused=True,
                      reduction_width=4))


def _gen_swizzles(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        for ew in (8, 16, 32):
            count = form // ew
            half = count // 2
            if half == 0:
                continue
            # vzip: interleave two vectors -> pair output (both halves).
            lines = [
                f"for e = 0 to {count - 1}",
                f"    {_elem('result', ew, '2*e')} = {_elem('operand1', ew)}",
                f"    {_elem('result', ew, '2*e+1')} = {_elem('operand2', ew)}",
                "endfor",
            ]

            def ref_zip(env, ew=ew, count=count):
                va = Vector(env["operand1"], ew)
                vb = Vector(env["operand2"], ew)
                out = []
                for i in range(count):
                    out.append(va.elem(i))
                    out.append(vb.elem(i))
                return vector_from_elems(out).bits

            specs.append(
                _spec(f"vzip{_q(form)}_u{ew}", "zip", _two(form), 2 * form,
                      "\n".join(lines) + "\n", "swizzle_zip", 3.0, 1.0,
                      ref_zip, elem_width=ew, swizzle=True, pair=True))
            # vuzp: de-interleave the concatenation of two vectors.
            lines = [
                f"for e = 0 to {count - 1}",
                f"    {_elem('result', ew, 'e')} = "
                f"{_elem('operand1', ew, '2*e') if False else ''}",
            ]
            # evens from the pair (operand1 low, operand2 high)
            lines = []
            for src_index, source in enumerate(("operand1", "operand2")):
                lines.append(f"for e = 0 to {half - 1}")
                lines.append(
                    f"    {_elem('result', ew, f'e + {src_index * half}')} = "
                    f"{_elem(source, ew, '2*e')}")
                lines.append("endfor")
            for src_index, source in enumerate(("operand1", "operand2")):
                lines.append(f"for e = 0 to {half - 1}")
                lines.append(
                    f"    {_elem('result', ew, f'e + {count + src_index * half}')} = "
                    f"{_elem(source, ew, '2*e+1')}")
                lines.append("endfor")

            def ref_uzp(env, ew=ew, half=half):
                va = Vector(env["operand1"], ew)
                vb = Vector(env["operand2"], ew)
                evens = [v.elem(2 * i) for v in (va, vb) for i in range(half)]
                odds = [v.elem(2 * i + 1) for v in (va, vb) for i in range(half)]
                return vector_from_elems(evens + odds).bits

            specs.append(
                _spec(f"vuzp{_q(form)}_u{ew}", "uzp", _two(form), 2 * form,
                      "\n".join(lines) + "\n", "swizzle_uzp", 3.0, 1.0,
                      ref_uzp, elem_width=ew, swizzle=True, pair=True))
            # vtrn: transpose pairs.
            lines = [
                f"for e = 0 to {half - 1}",
                f"    {_elem('result', ew, '2*e')} = {_elem('operand1', ew, '2*e')}",
                f"    {_elem('result', ew, '2*e+1')} = {_elem('operand2', ew, '2*e')}",
                "endfor",
                f"for e = 0 to {half - 1}",
                f"    {_elem('result', ew, f'2*e + {count}')} = "
                f"{_elem('operand1', ew, '2*e+1')}",
                f"    {_elem('result', ew, f'2*e+1 + {count}')} = "
                f"{_elem('operand2', ew, '2*e+1')}",
                "endfor",
            ]

            def ref_trn(env, ew=ew, half=half, count=count):
                va = Vector(env["operand1"], ew)
                vb = Vector(env["operand2"], ew)
                out = [None] * (2 * count)
                for i in range(half):
                    out[2 * i] = va.elem(2 * i)
                    out[2 * i + 1] = vb.elem(2 * i)
                    out[2 * i + count] = va.elem(2 * i + 1)
                    out[2 * i + 1 + count] = vb.elem(2 * i + 1)
                return vector_from_elems(out).bits

            specs.append(
                _spec(f"vtrn{_q(form)}_u{ew}", "trn", _two(form), 2 * form,
                      "\n".join(lines) + "\n", "swizzle_trn", 3.0, 1.0,
                      ref_trn, elem_width=ew, swizzle=True, pair=True))
        # vext with element offset half: concatenate upper/lower halves.
        for ew in (8, 16):
            count = form // ew
            half = count // 2
            lines = [
                f"for e = 0 to {half - 1}",
                f"    {_elem('result', ew)} = {_elem('operand1', ew, f'e + {half}')}",
                "endfor",
                f"for e = 0 to {half - 1}",
                f"    {_elem('result', ew, f'e + {half}')} = {_elem('operand2', ew)}",
                "endfor",
            ]

            def ref_ext(env, ew=ew, half=half):
                va = Vector(env["operand1"], ew)
                vb = Vector(env["operand2"], ew)
                out = [va.elem(i + half) for i in range(half)]
                out += [vb.elem(i) for i in range(half)]
                return vector_from_elems(out).bits

            specs.append(
                _spec(f"vext{_q(form)}_half_u{ew}", "ext", _two(form), form,
                      "\n".join(lines) + "\n", "swizzle_ext", 3.0, 1.0,
                      ref_ext, elem_width=ew, swizzle=True))
        # vrev: reverse elements within groups.
        for group_ew, ew_list in ((64, (8, 16, 32)), (32, (8, 16)), (16, (8,))):
            for ew in ew_list:
                per = group_ew // ew
                groups = form // group_ew
                lines = [f"for g = 0 to {groups - 1}"]
                lines.append(f"    for e = 0 to {per - 1}")
                lines.append(
                    f"        {_elem('result', ew, f'g*{per} + e')} = "
                    f"{_elem('operand1', ew, f'g*{per} + {per - 1} - e')}")
                lines.append("    endfor")
                lines.append("endfor")

                def ref_rev(env, ew=ew, per=per, groups=groups):
                    va = Vector(env["operand1"], ew)
                    out = []
                    for g in range(groups):
                        for e in range(per):
                            out.append(va.elem(g * per + per - 1 - e))
                    return vector_from_elems(out).bits

                specs.append(
                    _spec(f"vrev{group_ew}{_q(form)}_u{ew}", "rev",
                          [OperandSpec("operand1", form)], form,
                          "\n".join(lines) + "\n", f"swizzle_rev{group_ew}",
                          3.0, 0.5, ref_rev, elem_width=ew, swizzle=True))
        # vdup from a scalar.
        for ew in (8, 16, 32):
            count = form // ew
            body = _loop(count, f"{_elem('result', ew)} = scalar[{ew - 1}:0]")

            def ref_dup(env, ew=ew, count=count):
                elem = env["scalar"].trunc(ew)
                return vector_from_elems([elem] * count).bits

            specs.append(
                _spec(f"vdup{_q(form)}_n_u{ew}", "dup",
                      [OperandSpec("scalar", 32)], form, body, "broadcast",
                      3.0, 0.5, ref_dup, elem_width=ew, swizzle=True))


def _gen_compare(specs: list[InstructionSpec]) -> None:
    for form in FORMS:
        for ew in (8, 16, 32):
            count = form // ew
            a, b = _elem("operand1", ew), _elem("operand2", ew)
            d = _elem("result", ew)
            # FullMask idiom: sign-extend the 1-bit predicate.
            cases = [
                ("vceq", f"SExt({a} == {b}, {ew})", "eq", None),
                ("vcgt", f"SExt({a} >s {b}, {ew})", "gt_s", True),
                ("vcgt", f"SExt({a} >u {b}, {ew})", "gt_u", False),
                ("vcge", f"SExt({a} >=s {b}, {ew})", "ge_s", True),
                ("vcge", f"SExt({a} >=u {b}, {ew})", "ge_u", False),
            ]
            for op, rhs, kind, signed in cases:
                if kind == "eq":
                    t = "u"
                else:
                    t = _TYPE[signed]

                def fn_cmp(x, y, kind=kind, ew=ew):
                    table = {
                        "eq": x.value == y.value,
                        "gt_s": x.signed > y.signed,
                        "gt_u": x.unsigned > y.unsigned,
                        "ge_s": x.signed >= y.signed,
                        "ge_u": x.unsigned >= y.unsigned,
                    }
                    ones = BitVector((1 << ew) - 1, ew)
                    return ones if table[kind] else BitVector(0, ew)

                specs.append(
                    _spec(f"{op}{_q(form)}_{t}{ew}", op[1:], _two(form), form,
                          _loop(count, f"{d} = {rhs}"), f"cmp_{kind}", 3.0,
                          0.5, _ref_lanewise(ew, fn_cmp), elem_width=ew,
                          simd=True))


def generate_arm_catalog() -> IsaCatalog:
    """Generate the full synthetic ARM NEON manual."""
    specs: list[InstructionSpec] = []
    _gen_arith(specs)
    _gen_mul(specs)
    _gen_unary(specs)
    _gen_logic(specs)
    _gen_shifts(specs)
    _gen_widening_add(specs)
    _gen_pairwise(specs)
    _gen_dot(specs)
    _gen_swizzles(specs)
    _gen_compare(specs)
    return IsaCatalog("arm", specs)
