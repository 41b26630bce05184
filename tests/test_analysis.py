"""Tests for the diagnostics engine and the spec-corpus checks.

Every spec of every registered ISA must agree with its documented
operands and pass the Hydride IR type/width checker; each check has a
seeded defect that shows it can fail.
"""

import dataclasses
import json

import pytest

from repro.analysis import (
    RULES,
    DiagnosticSink,
    IRVerificationError,
    Provenance,
    Severity,
    check_semantics,
    rule_doc,
)
from repro.hydride_ir.interp import resolved_input_widths
from repro.isa.registry import SUPPORTED_ISAS, load_isa
from repro.isa.spec import OperandSpec


class TestDiagnosticsEngine:
    def test_emit_and_counts(self):
        sink = DiagnosticSink()
        sink.emit("hydride/binop-width", "w1", Severity.ERROR)
        sink.emit("hydride/const-range", "w2", Severity.WARNING)
        assert sink.error_count == 1
        assert sink.warning_count == 1
        assert sink.has_errors()
        assert [d.rule for d in sink.errors()] == ["hydride/binop-width"]

    def test_unknown_rule_rejected(self):
        sink = DiagnosticSink()
        with pytest.raises(KeyError):
            sink.emit("hydride/no-such-rule", "boom")

    def test_rule_catalog_documented(self):
        for rule in RULES:
            layer, _, defect = rule.partition("/")
            assert layer in {"hydride", "llvm"}
            assert defect
            assert rule_doc(rule)

    def test_storage_cap_keeps_counts(self):
        sink = DiagnosticSink(max_per_rule=3)
        for i in range(10):
            sink.emit("llvm/redef", f"dup {i}")
        assert len(sink.diagnostics) == 3
        assert sink.by_rule()["llvm/redef"] == 10
        assert sink.error_count == 10

    def test_provenance_format(self):
        where = Provenance(isa="x86", instruction="_mm_add_epi16", stage="parse")
        sink = DiagnosticSink()
        diag = sink.emit("hydride/binop-width", "widths 16 and 8", provenance=where)
        text = diag.format()
        assert "error[hydride/binop-width]" in text
        assert "x86:_mm_add_epi16" in text
        assert "@parse" in text

    def test_json_roundtrip(self):
        sink = DiagnosticSink()
        sink.emit(
            "hydride/extract-bounds",
            "slice [8, 40) of a 32-bit value",
            Severity.ERROR,
            Provenance(instruction="_mm_add_epi16", stage="canonicalize"),
        )
        payload = json.loads(sink.to_json())
        assert payload["summary"]["errors"] == 1
        [record] = payload["diagnostics"]
        assert record["rule"] == "hydride/extract-bounds"
        assert record["instruction"] == "_mm_add_epi16"

    def test_raise_if_errors(self):
        sink = DiagnosticSink()
        sink.emit("llvm/undef-value", "use of %ghost")
        with pytest.raises(IRVerificationError) as info:
            sink.raise_if_errors("translate:w0")
        assert "translate:w0" in str(info.value)
        assert info.value.diagnostics[0].rule == "llvm/undef-value"


def _semantics_io_problems(spec, func) -> list[str]:
    """Where the parsed semantics disagree with the documented operands."""
    declared = {op.name: op for op in spec.operands}
    widths = resolved_input_widths(func, func.params)
    problems = []
    for inp in func.inputs:
        operand = declared.get(inp.name)
        if operand is None:
            problems.append(f"input {inp.name!r} is not a documented operand")
            continue
        if operand.width != widths[inp.name]:
            problems.append(
                f"operand {inp.name!r} documented at {operand.width} bits, "
                f"semantics declares {widths[inp.name]}"
            )
        if operand.is_immediate != inp.is_immediate:
            problems.append(f"operand {inp.name!r} immediate flag mismatch")
    return problems


class TestCorpusClean:
    """The shipped spec corpora, every spec of every registered ISA."""

    @pytest.mark.parametrize("isa", SUPPORTED_ISAS)
    def test_semantics_check_clean(self, isa):
        loaded = load_isa(isa)
        found = []
        for spec in loaded.catalog:
            found += check_semantics(
                loaded.semantics[spec.name],
                declared_output_width=spec.output_width,
                isa=isa,
                stage="canonicalize",
            )
        assert found == [], [d.format() for d in found[:10]]

    @pytest.mark.parametrize("isa", SUPPORTED_ISAS)
    def test_semantics_match_documented_operands(self, isa):
        loaded = load_isa(isa)
        problems = [
            f"{spec.name}: {problem}"
            for spec in loaded.catalog
            for problem in _semantics_io_problems(
                spec, loaded.semantics[spec.name]
            )
        ]
        assert problems == [], problems[:10]

    def test_seeded_output_width_defect_fails(self):
        loaded = load_isa("x86")
        spec = loaded.spec("_mm_add_epi16")
        diagnostics = check_semantics(
            loaded.semantics[spec.name],
            declared_output_width=2 * spec.output_width,
        )
        assert [d.rule for d in diagnostics] == ["hydride/output-width"]

    @pytest.mark.parametrize(
        "operand,problem",
        [
            (OperandSpec("a", 64), "documented at 64 bits"),
            (OperandSpec("a", 128, is_immediate=True), "immediate flag"),
            (OperandSpec("x", 128), "not a documented operand"),
        ],
        ids=["width", "immediate", "undocumented"],
    )
    def test_seeded_operand_defect_fails(self, operand, problem):
        loaded = load_isa("x86")
        spec = loaded.spec("_mm_add_epi16")
        func = loaded.semantics[spec.name]
        assert _semantics_io_problems(spec, func) == []
        bad = dataclasses.replace(spec, operands=(operand, spec.operands[1]))
        [found] = _semantics_io_problems(bad, func)
        assert problem in found
