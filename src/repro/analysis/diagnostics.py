"""Diagnostics engine for the cross-layer IR verifier ("hydride-lint").

Every well-formedness check in :mod:`repro.analysis` reports its findings
as :class:`Diagnostic` records instead of raising ad-hoc exceptions.  A
diagnostic carries a stable rule ID (the catalogue below), a severity, a
human-readable message and :class:`Provenance` — which ISA / instruction
spec / pipeline stage produced the offending node — so a defect found deep
inside CEGIS can still be traced back to the vendor pseudocode line that
introduced it.  Sinks aggregate diagnostics, render terminal summaries and
serialise to machine-readable JSON for tooling.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


#: The rule catalogue.  IDs are ``<layer>/<defect>``; adding a rule here is
#: what makes it emittable — sinks reject unknown IDs so typos fail loudly.
RULES: dict[str, str] = {
    # -- instruction spec records (the "manual entry" layer) -------------
    "spec/duplicate-name": "two catalog entries share one instruction name",
    "spec/output-width": "declared output width is not positive",
    "spec/empty-pseudocode": "spec has no pseudocode text to parse",
    "spec/timing": "latency or throughput is not positive",
    "spec/semantics-io": "parsed semantics disagrees with the operand list",
    "spec/lane-width": "element or lane width does not tile the output width",
    "spec/mask-width": "mask register width disagrees with the element count",
    # -- Hydride IR semantics functions ----------------------------------
    "hydride/unknown-input": "body references an undeclared input register",
    "hydride/input-decl": "input declaration is malformed (dup name, width)",
    "hydride/unbound-symbol": "index expression uses an unbound param/iterator",
    "hydride/index-eval": "index expression cannot be evaluated",
    "hydride/op-name": "operator name unknown to the bitvector substrate",
    "hydride/nonpositive-width": "expression has a non-positive bit width",
    "hydride/binop-width": "binary operation operand widths differ",
    "hydride/cmp-width": "comparison operand widths differ",
    "hydride/ite-cond": "ite condition is not 1 bit wide",
    "hydride/ite-branch": "ite branch widths differ",
    "hydride/extract-bounds": "extract slice exceeds the source width",
    "hydride/shift-range": "constant shift amount out of element range",
    "hydride/loop-count": "ForConcat iteration count is not positive",
    "hydride/lane-width": "loop body width varies across iterations",
    "hydride/output-width": "body width disagrees with the declared output",
    "hydride/cast-width": "cast direction contradicts the width change",
    "hydride/saturate-width": "saturating cast widens its operand",
    "hydride/const-range": "constant value does not fit its declared width",
    # -- lowered Halide IR windows ---------------------------------------
    "halide/nonpositive-type": "node type has non-positive lanes or width",
    "halide/op-name": "unknown Halide operation or cast kind",
    "halide/binop-type": "binary operation operand types differ",
    "halide/select-cond": "select condition is not 1-bit with matching lanes",
    "halide/slice-bounds": "lane slice exceeds the source lane count",
    "halide/concat-elem": "concat parts have differing element widths",
    "halide/reduce-factor": "reduce_add factor does not divide the lanes",
    "halide/shuffle-index": "shuffle index outside the source lane range",
    "halide/load-conflict": "one load/broadcast name bound at two types",
    "halide/const-range": "splat constant does not fit the element width",
    # -- synthesis candidate programs (pre-SMT well-typedness) -----------
    "synth/nonpositive-width": "candidate node has a non-positive bit width",
    "synth/op-arity": "instruction application has wrong argument count",
    "synth/imm-arity": "instruction application has wrong immediate count",
    "synth/arg-width": "argument width disagrees with the input declaration",
    "synth/out-width": "recorded output width disagrees with the semantics",
    "synth/slice-width": "half-register slice of an unsplittable width",
    "synth/swizzle-arity": "swizzle pattern applied at the wrong arity",
    "synth/swizzle-width": "swizzle operand/output widths are inconsistent",
    # -- semantic rules (abstract interpretation, repro.analysis.absint) -
    "sem/select-const": "select condition is abstractly constant",
    "sem/shift-overflow": "shift amount is provably >= the operand width",
    "sem/impossible-compare": "comparison result is abstractly constant",
    "sem/const-subtree": "subtree always evaluates to one constant",
    "sem/dead-lanes": "input bits never observed by the output",
    # -- lint driver internals --------------------------------------------
    "A-INTERNAL": "a checker raised an internal error while linting",
    # -- AutoLLVM / LLVM IR functions ------------------------------------
    "llvm/undef-value": "use of an undefined SSA value",
    "llvm/redef": "SSA value defined twice",
    "llvm/undef-ret": "function returns an undefined value",
    "llvm/unknown-intrinsic": "autollvm callee absent from the dictionary",
    "llvm/op-arity": "intrinsic call has wrong register operand count",
    "llvm/imm-arity": "intrinsic call has wrong immediate operand count",
    "llvm/imm-type": "immediate operand is not an i32 scalar",
    "llvm/imm-position": "immediate operand precedes a register operand",
    "llvm/result-type": "call result type contradicts the intrinsic shape",
}


def rule_doc(rule_id: str) -> str:
    """One-line description of a rule; raises KeyError for unknown IDs."""
    return RULES[rule_id]


@dataclass(frozen=True)
class Provenance:
    """Where a diagnosed node came from."""

    isa: str = ""
    instruction: str = ""  # spec name / kernel name / LLVM function name
    stage: str = ""  # pipeline stage: parse, canonicalize, lowering, ...
    node: str = ""  # short rendering of the offending node

    def format(self) -> str:
        origin = ":".join(p for p in (self.isa, self.instruction) if p)
        parts = [p for p in (origin, self.stage) if p]
        text = " @".join(parts) if len(parts) == 2 else "".join(parts)
        if self.node:
            text = f"{text} [{self.node}]" if text else f"[{self.node}]"
        return text


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    severity: Severity
    message: str
    provenance: Provenance = field(default_factory=Provenance)

    def format(self) -> str:
        where = self.provenance.format()
        prefix = f"{self.severity.value}[{self.rule}]"
        return f"{prefix} {where}: {self.message}" if where else f"{prefix}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "isa": self.provenance.isa,
            "instruction": self.provenance.instruction,
            "stage": self.provenance.stage,
            "node": self.provenance.node,
        }


class IRVerificationError(Exception):
    """Raised by the ``assert_*`` checkers when a check finds errors."""

    def __init__(self, diagnostics: list[Diagnostic], context: str = "") -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity is Severity.ERROR]
        shown = "\n".join(d.format() for d in errors[:8])
        extra = len(errors) - min(len(errors), 8)
        if extra > 0:
            shown += f"\n... and {extra} more"
        header = f"{context}: " if context else ""
        super().__init__(f"{header}{len(errors)} IR verification error(s)\n{shown}")


class DiagnosticSink:
    """Accumulates diagnostics and renders summaries.

    ``max_per_rule`` caps how many diagnostics of one rule are *stored*
    (counts keep growing), so linting a corpus with a systematic defect
    does not hoard thousands of identical records.
    """

    def __init__(self, max_per_rule: int = 200) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.max_per_rule = max_per_rule
        self._rule_counts: Counter[str] = Counter()
        self._severity_counts: Counter[str] = Counter()

    def emit(
        self,
        rule: str,
        message: str,
        severity: Severity = Severity.ERROR,
        provenance: Provenance | None = None,
    ) -> Diagnostic:
        if rule not in RULES:
            raise KeyError(f"unknown diagnostic rule {rule!r}")
        diag = Diagnostic(rule, severity, message, provenance or Provenance())
        self.add(diag)
        return diag

    def add(self, diag: Diagnostic) -> None:
        if diag.rule not in RULES:
            raise KeyError(f"unknown diagnostic rule {diag.rule!r}")
        self._rule_counts[diag.rule] += 1
        self._severity_counts[diag.severity.value] += 1
        if self._rule_counts[diag.rule] <= self.max_per_rule:
            self.diagnostics.append(diag)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        for diag in diagnostics:
            self.add(diag)

    @property
    def error_count(self) -> int:
        return self._severity_counts["error"]

    @property
    def warning_count(self) -> int:
        return self._severity_counts["warning"]

    def has_errors(self) -> bool:
        return self.error_count > 0

    def by_rule(self) -> Counter:
        return Counter(self._rule_counts)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def summary(self) -> dict:
        return {
            "errors": self.error_count,
            "warnings": self.warning_count,
            "notes": self._severity_counts["note"],
            "rules": dict(sorted(self._rule_counts.items())),
        }

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "summary": self.summary(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def raise_if_errors(self, context: str = "") -> None:
        if self.has_errors():
            raise IRVerificationError(self.diagnostics, context)
