"""HVX ISA: Qualcomm-PRM-style C dialect table and spec generator."""

from repro.isa.hvx.parser import parse_hvx_pseudocode, hvx_semantics
from repro.isa.hvx.specgen import generate_hvx_catalog

__all__ = ["parse_hvx_pseudocode", "hvx_semantics", "generate_hvx_catalog"]
