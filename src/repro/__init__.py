"""Hydride (ASPLOS 2024) reproduction: a retargetable, extensible
synthesis-based compiler, with every substrate built from scratch.

Public API tour (see README.md for the architecture diagram):

Offline phase
    >>> from repro import load_isa, build_dictionary
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

from importlib import import_module

__version__ = "1.0.0"

# Public name -> the module that defines it.  Resolved on first access
# (PEP 562), so that importing one subsystem — an IR-generation process,
# say — does not import every other.
_EXPORTS = {
    "InstructionSelector": "repro.autollvm",
    "build_dictionary": "repro.autollvm",
    "CompileError": "repro.backend",
    "HalideNativeCompiler": "repro.backend",
    "HydrideCompiler": "repro.backend",
    "LlvmGenericCompiler": "repro.backend",
    "RakeCompiler": "repro.backend",
    "load_isa": "repro.isa.registry",
    "CegisOptions": "repro.synthesis",
    "GrammarOptions": "repro.synthesis",
    "MemoCache": "repro.synthesis",
    "SynthesisFailure": "repro.synthesis",
    "build_grammar": "repro.synthesis",
    "synthesize": "repro.synthesis",
    "benchmark_named": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
