"""Extending Hydride with new instructions — the paper's ARM case study.

The paper's headline engineering claim: a student added a whole new ISA
in ~3 months because only the pseudocode parser is ISA-specific — here,
only the dialect table and the catalog are.  This example demonstrates
the same extensibility in miniature: we "publish" two new vendor
instructions (a fused multiply-add the base x86 catalog lacks, and a
new-width saturating add), parse them with the existing x86 dialect, run
the Similarity Checking Engine over the extended catalog, and
watch AutoLLVM absorb them — one lands in an *existing* equivalence class
(zero new IR operations needed), the other founds a new class.

Run:  python examples/extend_isa.py
"""

from repro.hydride_ir.transforms import canonicalize
from repro.isa.registry import load_isa
from repro.isa.spec import InstructionSpec, OperandSpec
from repro.isa.x86.parser import x86_semantics
from repro.similarity.constants import extract_constants
from repro.similarity.engine import SimilarityEngine
from repro.smt.solver import EquivalenceChecker


NEW_SPECS = [
    # A 128-bit saturating add over 32-bit elements: x86 has no adds_epi32,
    # but ARM's vqaddq_s32 exists — similarity should place this new
    # "instruction" into the same class as the ARM ones.
    InstructionSpec(
        name="_mm_adds_epi32",
        isa="x86",
        asm="vpaddsd",
        operands=(OperandSpec("a", 128), OperandSpec("b", 128)),
        output_width=128,
        pseudocode=(
            "FOR j := 0 to 3\n"
            "    i := j*32\n"
            "    dst[i+31:i] := AddSatS(a[i+31:i], b[i+31:i])\n"
            "ENDFOR\n"
        ),
        extension="HYPOTHETICAL",
        family="ew_adds",
        latency=1.0,
        throughput=0.5,
    ),
    # A three-input fused multiply-add new to every catalog: founds a new
    # equivalence class (and therefore a new AutoLLVM operation).
    InstructionSpec(
        name="_mm_fma_epi16",
        isa="x86",
        asm="vpfmaw",
        operands=(
            OperandSpec("acc", 128), OperandSpec("a", 128), OperandSpec("b", 128),
        ),
        output_width=128,
        pseudocode=(
            "FOR j := 0 to 7\n"
            "    i := j*16\n"
            "    dst[i+15:i] := acc[i+15:i] + Truncate16("
            "SignExtend32(a[i+15:i]) * SignExtend32(b[i+15:i]))\n"
            "ENDFOR\n"
        ),
        extension="HYPOTHETICAL",
        family="ew_fma",
        latency=4.0,
        throughput=1.0,
    ),
]


def main() -> None:
    print("parsing the new vendor specs with the existing x86 parser...")
    new_symbolics = []
    for spec in NEW_SPECS:
        semantics = canonicalize(x86_semantics(spec))
        new_symbolics.append(extract_constants(semantics, "x86"))
        print(f"  parsed {spec.name}")

    print("\nrunning the similarity engine over ARM + the new instructions...")
    arm = load_isa("arm")
    symbolics = [
        extract_constants(arm.semantics[s.name], "arm") for s in arm.catalog
    ]
    engine = SimilarityEngine(EquivalenceChecker(seed=5))
    classes = engine.run(symbolics + new_symbolics)

    by_member = {m.name: c for c in classes for m in c.members}
    adds_class = by_member["_mm_adds_epi32"]
    fma_class = by_member["_mm_fma_epi16"]

    print(f"\n_mm_adds_epi32 joined class #{adds_class.class_id} with "
          f"{len(adds_class.members)} members, e.g. "
          f"{[m.name for m in adds_class.members[:4]]}")
    assert any(m.name.startswith("vqadd") for m in adds_class.members), (
        "expected the new saturating add to merge with ARM's vqadd family"
    )
    print("  -> no new AutoLLVM operation needed: the existing retargetable")
    print("     intrinsic covers it with a new parameter assignment.")

    print(f"\n_mm_fma_epi16 founded class #{fma_class.class_id} "
          f"with members {[m.name for m in fma_class.members]}")
    mla_members = [m.name for m in fma_class.members if "mla" in m.name]
    if mla_members:
        print(f"  -> it merged with ARM's fused multiply-accumulate: {mla_members[:3]}")
    else:
        print("  -> a brand-new AutoLLVM operation would be generated for it.")


if __name__ == "__main__":
    main()
