"""Hydride (ASPLOS 2024) reproduction: a retargetable, extensible
synthesis-based compiler, with every substrate built from scratch.

Public API tour (see README.md for the architecture diagram):

Offline phase
    >>> from repro import load_isa, build_equivalence_classes, build_dictionary
    >>> dictionary = build_dictionary()  # every registered ISA

Online phase
    >>> from repro import build_grammar, synthesize, CegisOptions
    >>> from repro.halide import ir as hir
    >>> window = hir.HBin("adds", hir.HLoad("a", 16, 16), hir.HLoad("b", 16, 16))
    >>> result = synthesize(window, build_grammar(window, "x86", dictionary))

End-to-end compilation and evaluation
    >>> from repro import HydrideCompiler, benchmark_named
    >>> kernel = benchmark_named("matmul_b1").lower("x86")[0]
    >>> compiled = HydrideCompiler(dictionary=dictionary).compile(kernel, "x86")
"""

from repro.autollvm import InstructionSelector, build_dictionary
from repro.backend import (
    CompileError,
    HalideNativeCompiler,
    HydrideCompiler,
    LlvmGenericCompiler,
    RakeCompiler,
)
from repro.isa.registry import load_isa
from repro.similarity import build_equivalence_classes
from repro.synthesis import (
    CegisOptions,
    GrammarOptions,
    MemoCache,
    SynthesisFailure,
    build_grammar,
    synthesize,
)
from repro.workloads import benchmark_named

__version__ = "1.0.0"

__all__ = [
    "InstructionSelector",
    "build_dictionary",
    "CompileError",
    "HalideNativeCompiler",
    "HydrideCompiler",
    "LlvmGenericCompiler",
    "RakeCompiler",
    "load_isa",
    "build_equivalence_classes",
    "CegisOptions",
    "GrammarOptions",
    "MemoCache",
    "SynthesisFailure",
    "build_grammar",
    "synthesize",
    "benchmark_named",
    "__version__",
]
