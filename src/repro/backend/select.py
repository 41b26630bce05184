"""Instruction lookup helpers shared by the baseline backends."""

from __future__ import annotations

from functools import lru_cache

from repro.isa.registry import load_catalog
from repro.isa.spec import InstructionSpec
from repro.machine.ops import MachineOp, op_from_spec


class OpTable:
    """Finds catalog instructions by family and element width."""

    def __init__(self, isa: str) -> None:
        self.isa = isa
        self.catalog = load_catalog(isa)
        self._index: dict[tuple[str, int], list[InstructionSpec]] = {}
        for spec in self.catalog:
            elem_width = spec.attributes.get("elem_width", 0)
            self._index.setdefault((spec.family, elem_width), []).append(spec)

    def instr(
        self, family: str, elem_width: int, prefer_bits: int | None = None
    ) -> InstructionSpec | None:
        """The family member at this element width, widest-register first."""
        candidates = self._index.get((family, elem_width), [])
        if not candidates:
            return None
        if prefer_bits is not None:
            exact = [c for c in candidates if c.output_width == prefer_bits]
            if exact:
                return exact[0]
        return max(candidates, key=lambda c: c.output_width)

    def op(
        self,
        family: str,
        elem_width: int,
        prefer_bits: int | None = None,
        carried: bool = False,
    ) -> MachineOp | None:
        spec = self.instr(family, elem_width, prefer_bits)
        if spec is None:
            return None
        return op_from_spec(spec, carried)


@lru_cache(maxsize=None)
def op_table(isa: str) -> OpTable:
    return OpTable(isa)


def generic_op(name: str, port: str, latency: float = 1.0, rtp: float = 0.5) -> MachineOp:
    """A synthetic op for expansion sequences with no single instruction."""
    return MachineOp(name, port, latency, rtp)
