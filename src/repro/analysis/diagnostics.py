"""Diagnostics engine for the Hydride IR and AutoLLVM checkers.

Every check in :mod:`repro.analysis` reports its findings as
:class:`Diagnostic` records instead of raising ad-hoc exceptions.  A
diagnostic carries a stable rule ID (the catalogue below), a severity, a
human-readable message and :class:`Provenance` — which ISA / instruction
spec / pipeline stage produced the offending node.  Sinks aggregate
diagnostics and serialise them to JSON.
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


#: The rule catalogue.  IDs are ``<layer>/<defect>``; adding a rule here is
#: what makes it emittable — sinks reject unknown IDs so typos fail loudly.
RULES: dict[str, str] = {
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
    instruction: str = ""  # spec name / LLVM function name
    stage: str = ""  # pipeline stage: parse, canonicalize, verify, ...
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
    """Raised by :meth:`DiagnosticSink.raise_if_errors` when errors were found."""

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
    (counts keep growing), so a systematic defect does not hoard
    thousands of identical records.
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
        self._rule_counts[rule] += 1
        self._severity_counts[severity.value] += 1
        if self._rule_counts[rule] <= self.max_per_rule:
            self.diagnostics.append(diag)
        return diag

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
