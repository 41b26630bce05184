"""Cross-layer static analysis for the Hydride pipeline ("hydride-lint").

A pass-based verification framework shared by all three program
representations the compiler moves through:

* **Hydride IR** semantics functions
  (:mod:`repro.analysis.hydride_check`) — type/width inference,
  lane-count consistency, slice bounds, shift ranges, ``ForConcat``
  width arithmetic;
* **lowered Halide IR** windows (:mod:`repro.analysis.halide_check`);
* **synthesis candidate programs**
  (:mod:`repro.analysis.synth_check`) — well-typedness of target
  programs;
* **AutoLLVM / LLVM IR** functions (:mod:`repro.analysis.llvm_check`)
  — SSA plus intrinsic-signature validation;
* **semantic rules** (:mod:`repro.analysis.semantic_check`) — driven by
  the abstract interpreter in :mod:`repro.analysis.absint` (known-bits
  + value-range lattices): dead branches, impossible compares,
  overflowing shifts, constant-foldable subtrees, dead input lanes.

All checkers report through one diagnostics engine
(:mod:`repro.analysis.diagnostics`) with stable rule IDs, severities,
provenance and JSON output.  ``python -m repro.analysis`` lints the
full generated spec corpora.
"""

from repro.analysis.absint import (
    AbsValue,
    abstract_semantics,
    provably_disagrees,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    IRVerificationError,
    Provenance,
    RULES,
    Severity,
    rule_doc,
)
from repro.analysis.halide_check import assert_window, check_window
from repro.analysis.hydride_check import assert_semantics, check_semantics
from repro.analysis.llvm_check import check_function as check_llvm_function
from repro.analysis.sarif import sarif_json, to_sarif
from repro.analysis.semantic_check import check_semantic_rules, observed_bits
from repro.analysis.synth_check import assert_program, check_program

__all__ = [
    "AbsValue",
    "abstract_semantics",
    "check_semantic_rules",
    "observed_bits",
    "provably_disagrees",
    "sarif_json",
    "to_sarif",
    "Diagnostic",
    "DiagnosticSink",
    "IRVerificationError",
    "Provenance",
    "RULES",
    "Severity",
    "rule_doc",
    "assert_program",
    "assert_semantics",
    "assert_window",
    "check_llvm_function",
    "check_program",
    "check_semantics",
    "check_window",
]
