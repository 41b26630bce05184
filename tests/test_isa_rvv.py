"""Tests for the vector-length-agnostic RVV catalog (repro.isa.rvv).

The RVV specs keep VLEN/LMUL/SEW symbolic in the pseudocode text and
bind them only at lowering time, so the same spec text must parse,
canonicalise and fuzz clean at the solver-tractable VLEN *and* at a
doubled VLEN — that agreement is the scale-down soundness argument.
"""

import pytest

from repro.autollvm.intrinsics import dictionary_from_classes, dictionary_isas
from repro.irgen import build_artifact, partition_digest
from repro.isa import registry
from repro.isa.fuzz import fuzz_catalog
from repro.isa.registry import load_isa, supported_isas
from repro.isa.rvv import VLEN_SOLVER, generate_rvv_catalog, rvv_semantics
from repro.isa.spec import (
    InstructionSpec,
    IsaCatalog,
    OperandSpec,
    validate_catalog,
)
from repro.synthesis.serialize import dictionary_fingerprint


@pytest.fixture(scope="module")
def catalog():
    return generate_rvv_catalog()


@pytest.fixture(scope="module")
def loaded():
    return load_isa("rvv")


class TestCatalog:
    def test_generation_is_deterministic(self, catalog):
        again = generate_rvv_catalog()
        assert [s.name for s in catalog.specs] == [s.name for s in again.specs]
        for ours, theirs in zip(catalog.specs, again.specs):
            assert ours.pseudocode == theirs.pseudocode
            assert ours.output_width == theirs.output_width
            assert ours.attributes == theirs.attributes

    def test_minimum_coverage(self, catalog):
        assert len(catalog.specs) >= 250
        families = {s.family for s in catalog.specs}
        # Families shared with the other ISAs so cross-ISA classes merge.
        assert {
            "ew_add", "ew_mullo", "widen_s", "widen_u", "narrow_sat_s",
            "narrow_sat_u", "predicated_mux", "dot_madd", "dot_4way",
            "dot_dpbusd",
        } <= families
        assert all(s.isa == "rvv" for s in catalog.specs)
        assert all(s.extension == "V" for s in catalog.specs)

    def test_machine_parameters_stay_symbolic(self, catalog):
        # The VL computation appears as *text*; no generator may splice a
        # concrete vl into the pseudocode.
        for spec in catalog.specs:
            assert "vl = (VLEN * LMUL) / SEW" in spec.pseudocode
            assert all(
                key in spec.attributes for key in ("vlen", "lmul", "sew")
            )

    def test_all_specs_parse_and_canonicalise(self, catalog, loaded):
        assert len(loaded) == len(catalog)
        assert set(loaded.semantics) == {s.name for s in catalog.specs}


class TestVlAgnosticism:
    def test_pseudocode_identical_across_vlen(self, catalog):
        doubled = generate_rvv_catalog(vlen=2 * VLEN_SOLVER)
        ours = {s.name: s.pseudocode for s in catalog.specs}
        theirs = {s.name: s.pseudocode for s in doubled.specs}
        shared = set(ours) & set(theirs)
        assert len(shared) >= 250
        assert all(ours[name] == theirs[name] for name in shared)

    def test_fuzz_clean_at_solver_vlen(self, catalog, loaded):
        assert fuzz_catalog(catalog.specs, loaded.semantics, trials=4) == []

    def test_fuzz_clean_at_doubled_vlen(self):
        # The scale-down argument: byte-identical spec text lowered at a
        # wider VLEN still agrees with the concrete reference.
        doubled = generate_rvv_catalog(vlen=2 * VLEN_SOLVER)
        semantics = {s.name: rvv_semantics(s) for s in doubled.specs}
        assert fuzz_catalog(doubled.specs, semantics, trials=2) == []

    def test_untileable_vlen_rejected(self):
        with pytest.raises(ValueError):
            generate_rvv_catalog(vlen=96)


class TestRegistry:
    def test_rvv_registered(self):
        assert "rvv" in supported_isas()

    def test_unknown_isa_raises(self):
        with pytest.raises(ValueError, match="supported"):
            load_isa("vax")

    def test_dictionary_isas(self):
        # Every job compiles against the one dictionary, over every
        # registered ISA.
        assert dictionary_isas("x86") == supported_isas()
        assert dictionary_isas("rvv") == supported_isas()


class TestIrgenDeterminism:
    @pytest.fixture(scope="class")
    def artifacts(self):
        # A registry of rvv alone keeps the two builds cheap.
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(registry, "SUPPORTED_ISAS", ("rvv",))
            return {jobs: build_artifact(jobs=jobs) for jobs in (1, 2)}

    def test_digest_identical_across_jobs(self, artifacts):
        assert partition_digest(artifacts[1].classes) == partition_digest(
            artifacts[2].classes
        )

    def test_dictionary_identical_across_jobs(self, artifacts):
        fingerprints = {
            dictionary_fingerprint(dictionary_from_classes(a.isas, a.classes))
            for a in artifacts.values()
        }
        assert len(fingerprints) == 1


class TestWidthLintRules:
    """``validate_catalog``'s lane and mask tiling checks, one spec each."""

    def _spec(self, **attrs):
        return InstructionSpec(
            name="bad", isa="rvv", asm="bad", extension="V", family="f",
            operands=(OperandSpec("vs2", 128), OperandSpec("vm", 24)),
            output_width=96, pseudocode="x", latency=1.0, throughput=1.0,
            attributes=attrs,
        )

    def _problems(self, **attrs):
        return validate_catalog(IsaCatalog("rvv", [self._spec(**attrs)]))

    def _one_problem(self, **attrs):
        [problem] = self._problems(**attrs)
        return problem

    def test_element_must_tile_output(self):
        assert "element width 7 does not divide output" in self._one_problem(
            elem_width=7
        )

    def test_lane_must_tile_output(self):
        assert "lane width 64 does not divide output" in self._one_problem(
            elem_width=8, lane_bits=64
        )

    def test_element_must_tile_lane(self):
        assert "element width 32 does not divide lane" in self._one_problem(
            elem_width=32, lane_bits=48
        )

    def test_mask_output_width_checked(self):
        assert "mask output is 96 bits" in self._one_problem(
            mask_output=True, mask_elems=16
        )

    def test_mask_operand_width_checked(self):
        assert "mask operand 'vm' is 24 bits" in self._one_problem(
            mask_elems=16, mask_operands=("vm",)
        )

    def test_consistent_spec_is_clean(self):
        assert self._problems(elem_width=32, lane_bits=96) == []
        assert self._problems(mask_elems=24, mask_operands=("vm",)) == []
