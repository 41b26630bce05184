"""Tests for the cross-layer IR verifier (repro.analysis)."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
from repro.analysis.cli import (
    baseline_counts,
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.sarif import to_sarif
from repro.isa.registry import load_isa

REPO_ROOT = Path(__file__).resolve().parent.parent


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
            if rule == "A-INTERNAL":
                # The lint driver's crash tripwire is deliberately not
                # namespaced: it marks the run, not a layer.
                assert rule_doc(rule)
                continue
            layer, _, defect = rule.partition("/")
            assert layer in {"spec", "hydride", "halide", "synth", "llvm", "sem"}
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
            "halide/slice-bounds",
            "slice [8, 40) of 32 lanes",
            Severity.ERROR,
            Provenance(instruction="blur", stage="lowering"),
        )
        payload = json.loads(sink.to_json())
        assert payload["summary"]["errors"] == 1
        [record] = payload["diagnostics"]
        assert record["rule"] == "halide/slice-bounds"
        assert record["instruction"] == "blur"

    def test_raise_if_errors(self):
        sink = DiagnosticSink()
        sink.emit("llvm/undef-value", "use of %ghost")
        with pytest.raises(IRVerificationError) as info:
            sink.raise_if_errors("translate:w0")
        assert "translate:w0" in str(info.value)
        assert info.value.diagnostics[0].rule == "llvm/undef-value"


class TestCorpusClean:
    """The shipped spec corpora must lint clean (the CI gate)."""

    @pytest.mark.parametrize("isa", ["x86", "hvx", "arm"])
    def test_sampled_semantics_check_clean(self, isa):
        loaded = load_isa(isa)
        names = sorted(loaded.semantics)[::31]  # every 31st, cheap but broad
        for name in names:
            spec = loaded.spec(name)
            diagnostics = check_semantics(
                loaded.semantics[name],
                declared_output_width=spec.output_width,
                isa=isa,
            )
            errors = [d for d in diagnostics if d.severity is Severity.ERROR]
            assert errors == [], [d.format() for d in errors]


class TestLintCli:
    def test_smoke_mode_exits_clean(self, capsys):
        status = lint_main(["--smoke"])
        out = capsys.readouterr().out
        assert status == 0
        assert "OK" in out
        for isa in ("x86", "hvx", "arm"):
            assert isa in out

    def test_json_output(self, capsys):
        status = lint_main(["--isa", "hvx", "--smoke", "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0

    def test_script_entry_point(self):
        """scripts/lint_ir.py --smoke is the tier-1 lint gate."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint_ir.py"),
             "--smoke", "--isa", "hvx"],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_internal_checker_crash_fails_run(self, monkeypatch, capsys):
        """A checker crash must surface as A-INTERNAL and a nonzero exit,
        never as a silently-green run (the historical failure mode)."""
        import repro.analysis.semantic_check as semantic_check

        def boom(*args, **kwargs):
            raise RuntimeError("injected checker crash")

        monkeypatch.setattr(semantic_check, "check_semantic_rules", boom)
        status = lint_main(["--isa", "hvx", "--smoke"])
        out = capsys.readouterr().out
        assert status == 1
        assert "A-INTERNAL" in out
        assert "injected checker crash" in out
        assert "FAIL" in out


class TestSarifOutput:
    def _sink(self):
        sink = DiagnosticSink()
        sink.emit(
            "hydride/binop-width",
            "widths 16 and 8",
            Severity.ERROR,
            Provenance(isa="x86", instruction="_mm_add_epi16", stage="parse"),
        )
        sink.emit(
            "sem/dead-lanes",
            "input a: 64 of 128 bits never observed",
            Severity.NOTE,
            Provenance(isa="x86", instruction="_mm_mul_epi32", stage="absint"),
        )
        return sink

    def test_to_sarif_structure(self):
        payload = to_sarif(self._sink().diagnostics)
        assert payload["version"] == "2.1.0"
        [run] = payload["runs"]
        driver = run["tool"]["driver"]
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert set(rule_ids) == {"hydride/binop-width", "sem/dead-lanes"}
        results = run["results"]
        assert [r["level"] for r in results] == ["error", "note"]
        assert results[0]["ruleId"] == "hydride/binop-width"
        assert rule_ids[results[0]["ruleIndex"]] == "hydride/binop-width"
        [location] = results[0]["locations"]
        [logical] = location["logicalLocations"]
        assert logical["fullyQualifiedName"] == "x86:_mm_add_epi16"
        assert logical["kind"] == "parse"

    def test_cli_sarif_format(self, capsys):
        status = lint_main(["--isa", "hvx", "--smoke", "--format", "sarif"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["tool"]["driver"]["name"] == "hydride-lint"

    def test_cli_sarif_output_file(self, tmp_path):
        out = tmp_path / "report.sarif"
        status = lint_main(
            ["--isa", "hvx", "--smoke", "--format", "sarif",
             "--output", str(out)]
        )
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"


class TestBaselineDiff:
    def _diags(self, extra=0):
        sink = DiagnosticSink()
        for _ in range(2 + extra):
            sink.emit(
                "sem/dead-lanes",
                "input a: bits never observed",
                Severity.NOTE,
                Provenance(isa="x86", instruction="foo", stage="absint"),
            )
        return sink.diagnostics

    def test_counts_and_clean_diff(self, tmp_path):
        diagnostics = self._diags()
        counts = baseline_counts(diagnostics)
        assert counts == {"sem/dead-lanes|x86|foo": 2}
        path = tmp_path / "baseline.json"
        write_baseline(str(path), diagnostics)
        baseline = load_baseline(str(path))
        assert diff_against_baseline(diagnostics, baseline) == []

    def test_new_findings_detected(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(str(path), self._diags())
        baseline = load_baseline(str(path))
        # One more of an existing key...
        grown = diff_against_baseline(self._diags(extra=1), baseline)
        assert grown == [("sem/dead-lanes|x86|foo", 3, 2)]
        # ... and a brand-new key (allowed count 0).
        sink = DiagnosticSink()
        sink.emit(
            "sem/select-const",
            "condition constant",
            Severity.WARNING,
            Provenance(isa="arm", instruction="bar", stage="absint"),
        )
        fresh = diff_against_baseline(sink.diagnostics, baseline)
        assert fresh == [("sem/select-const|arm|bar", 1, 0)]

    def test_disappearing_diagnostics_are_fine(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(str(path), self._diags(extra=3))
        assert diff_against_baseline(self._diags(), load_baseline(str(path))) == []

    def test_cli_round_trip(self, tmp_path, capsys):
        """--write-baseline followed by --baseline must be a clean run;
        an empty baseline must fail once any diagnostic exists."""
        path = tmp_path / "baseline.json"
        assert lint_main(
            ["--isa", "x86", "--write-baseline", str(path)]
        ) == 0
        assert lint_main(["--isa", "x86", "--baseline", str(path)]) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"counts": {}}))
        # The x86 corpus carries known sem/* notes, so an empty baseline
        # must flag them as new findings.
        assert lint_main(["--isa", "x86", "--baseline", str(empty)]) == 1
        assert "not in the baseline" in capsys.readouterr().out
