"""Well-formedness checkers for Hydride IR and AutoLLVM functions.

* :mod:`repro.analysis.hydride_check` — type/width inference over a
  Hydride IR semantics function: lane-count consistency, slice bounds,
  shift ranges, ``ForConcat`` width arithmetic;
* :mod:`repro.analysis.llvm_check` — SSA plus intrinsic-signature
  validation of AutoLLVM functions (the body of
  :func:`repro.autollvm.llvmir.verify_function`).

Both report through one diagnostics engine
(:mod:`repro.analysis.diagnostics`) with stable rule IDs, severities and
provenance.  The checkers are imported on first use, so reaching one
never loads the other.
"""

from importlib import import_module

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticSink,
    IRVerificationError,
    Provenance,
    Severity,
    rule_doc,
)

#: Lazily re-exported checker entry points: name -> (module, attribute).
_CHECKERS = {
    "check_semantics": ("repro.analysis.hydride_check", "check_semantics"),
    "check_llvm_function": ("repro.analysis.llvm_check", "check_function"),
}


def __getattr__(name: str):
    if name not in _CHECKERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _CHECKERS[name]
    return getattr(import_module(module), attr)


__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "IRVerificationError",
    "Provenance",
    "RULES",
    "Severity",
    "rule_doc",
    "check_llvm_function",
    "check_semantics",
]
