"""x86 ISA: Intel-style pseudocode dialect table and spec generator."""

from repro.isa.x86.parser import parse_x86_pseudocode, x86_semantics
from repro.isa.x86.specgen import generate_x86_catalog

__all__ = ["parse_x86_pseudocode", "x86_semantics", "generate_x86_catalog"]
