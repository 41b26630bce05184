"""Instruction specification records — the "vendor manual entry" type."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.bitvector.bv import BitVector


@dataclass(frozen=True)
class OperandSpec:
    """One operand of an instruction as documented by the vendor."""

    name: str
    width: int
    is_immediate: bool = False


# A reference executable: concrete input registers -> output register.
Reference = Callable[[Mapping[str, BitVector]], BitVector]


@dataclass
class InstructionSpec:
    """One manual entry: name, operands, pseudocode text, and metadata.

    ``pseudocode`` is text in the owning ISA's dialect — the parser input.
    ``reference`` is an independent executable implementation (stand-in for
    the target C builtin) used only by the differential fuzzer; the
    compiler pipeline never reads it.
    """

    name: str
    isa: str
    asm: str
    operands: tuple[OperandSpec, ...]
    output_width: int
    pseudocode: str
    extension: str
    family: str
    latency: float
    throughput: float
    reference: Reference | None = None
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def vector_width(self) -> int:
        return self.output_width

    def register_operands(self) -> list[OperandSpec]:
        return [op for op in self.operands if not op.is_immediate]


@dataclass
class IsaCatalog:
    """All instruction specs of one ISA — the "programmer's manual"."""

    isa: str
    specs: list[InstructionSpec]

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def by_name(self, name: str) -> InstructionSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"no instruction named {name!r} in {self.isa}")

    def families(self) -> dict[str, list[InstructionSpec]]:
        grouped: dict[str, list[InstructionSpec]] = {}
        for spec in self.specs:
            grouped.setdefault(spec.family, []).append(spec)
        return grouped

    def filter(self, predicate: Callable[[InstructionSpec], bool]) -> "IsaCatalog":
        return IsaCatalog(self.isa, [s for s in self.specs if predicate(s)])


def validate_catalog(catalog: IsaCatalog) -> list[str]:
    """Sanity checks a spec generator's output; returns problem strings."""
    problems: list[str] = []
    seen: set[str] = set()
    for spec in catalog:
        if spec.name in seen:
            problems.append(f"duplicate instruction name {spec.name}")
        seen.add(spec.name)
        if spec.output_width <= 0:
            problems.append(f"{spec.name}: non-positive output width")
        if not spec.pseudocode.strip():
            problems.append(f"{spec.name}: empty pseudocode")
        if spec.latency <= 0 or spec.throughput <= 0:
            problems.append(f"{spec.name}: non-positive latency/throughput")
        problems.extend(f"{spec.name}: {p}" for p in _width_problems(spec))
    return problems


def _width_problems(spec: InstructionSpec) -> list[str]:
    """Lane and mask tiling of the declared widths.

    Catches a fixed lane or vector width (e.g. 128-bit SSE lanes) baked
    into generated specs that mis-tiles at another vector length.  A
    mask-producing spec declares ``output_width`` in mask bits, so
    element and lane tiling do not apply to its output.
    """
    problems: list[str] = []
    attrs = spec.attributes
    elem = attrs.get("elem_width")
    lane = attrs.get("lane_bits")
    elem = elem if isinstance(elem, int) and elem > 0 else None
    lane = lane if isinstance(lane, int) and lane > 0 else None
    if not attrs.get("mask_output"):
        if elem and spec.output_width % elem:
            problems.append(
                f"element width {elem} does not divide output width "
                f"{spec.output_width}"
            )
        if lane and spec.output_width % lane:
            problems.append(
                f"lane width {lane} does not divide output width "
                f"{spec.output_width}"
            )
        if lane and elem and lane % elem:
            problems.append(
                f"element width {elem} does not divide lane width {lane}"
            )
    mask_elems = attrs.get("mask_elems")
    if isinstance(mask_elems, int) and mask_elems > 0:
        if attrs.get("mask_output") and spec.output_width != mask_elems:
            problems.append(
                f"mask output is {spec.output_width} bits for "
                f"{mask_elems} elements"
            )
        declared = {op.name: op.width for op in spec.operands}
        for name in attrs.get("mask_operands", ()) or ():
            width = declared.get(name)
            if width is not None and width != mask_elems:
                problems.append(
                    f"mask operand {name!r} is {width} bits for "
                    f"{mask_elems} elements"
                )
    return problems
