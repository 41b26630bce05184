"""ISA substrate: vendor-style pseudocode specifications and parsers.

The paper's offline phase starts from "pseudocode specifications of
instruction sets already specified by the hardware vendors in their
respective programmer's manuals", parsed by ISA-specific parsers into
Hydride IR.  The real manuals are proprietary documents; this package
substitutes faithfully-shaped synthetic equivalents:

* :mod:`repro.isa.x86` — an Intel-intrinsics-guide-style dialect
  (``FOR j := 0 to 7 ... dst[i+31:i] := ...``) covering SSE2/SSE4/AVX/
  AVX2/AVX512-class SIMD, swizzle, dot-product, mask and scalar ops,
* :mod:`repro.isa.hvx` — a Qualcomm-HVX-PRM-style C dialect
  (``for (i=0; i<32; i++) Vd.w[i] = ...``),
* :mod:`repro.isa.arm` — an ARM-ASL-style dialect
  (``for e = 0 to 7 ... Elem[result, e, 16] = ...``) covering NEON-class
  ops including the fused multiply-accumulate family.

Each ISA provides a *spec generator* (the stand-in for the vendor manual)
and a *dialect table* driving the one parser in
:mod:`repro.isa.pseudo_core` (genuine lexing/parsing/lowering of that
dialect into :class:`repro.hydride_ir.SemanticsFunction`).  Every
instruction also
carries a reference executable (the stand-in for target C builtins) that
the differential fuzzer in :mod:`repro.isa.fuzz` checks parsed semantics
against.
"""

from repro.isa.spec import InstructionSpec, IsaCatalog, OperandSpec
from repro.isa.registry import load_isa

__all__ = [
    "InstructionSpec",
    "IsaCatalog",
    "OperandSpec",
    "load_isa",
]
