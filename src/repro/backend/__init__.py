"""Compiler backends evaluated in the paper's Figure 6.

* :mod:`repro.backend.hydride` — the full Hydride pipeline: window
  extraction, CEGIS synthesis to AutoLLVM IR, 1-1 lowering to target
  instructions;
* :mod:`repro.backend.halide_native` — the production-Halide-style
  baseline: hand-written, target-specific pattern-matching rules
  (including wide-window rules Hydride cannot synthesize);
* :mod:`repro.backend.llvm_generic` — Halide's LLVM-backend baseline:
  generic op-by-op SIMD lowering that expands complex operations into
  simple instruction sequences;
* :mod:`repro.backend.rake` — the Rake baseline: synthesis over a
  hand-implemented subset of HVX/ARM semantics, with its published
  semantics bugs reproducible behind a flag.

All backends produce :class:`repro.backend.common.CompiledKernel`, which
the machine model costs uniformly.
"""

from repro.backend.common import CompileError, CompiledKernel
from repro.backend.hydride import HydrideCompiler
from repro.backend.halide_native import HalideNativeCompiler
from repro.backend.llvm_generic import LlvmGenericCompiler
from repro.backend.rake import RakeCompiler

__all__ = [
    "CompileError",
    "CompiledKernel",
    "HydrideCompiler",
    "HalideNativeCompiler",
    "LlvmGenericCompiler",
    "RakeCompiler",
]
