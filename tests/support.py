"""Helpers shared by several test modules."""

from repro.isa.registry import load_isa
from repro.similarity.constants import SymbolicSemantics, extract_constants


def parsed_symbolics(isa: str) -> list[SymbolicSemantics]:
    """Every spec of ``isa`` parsed and constant-extracted, in catalog
    order: the similarity engine's input."""
    loaded = load_isa(isa)
    return [
        extract_constants(loaded.semantics[spec.name], isa)
        for spec in loaded.catalog
    ]
