"""ARM ISA: ASL-style pseudocode dialect table and spec generator."""

from repro.isa.arm.parser import parse_arm_pseudocode, arm_semantics
from repro.isa.arm.specgen import generate_arm_catalog

__all__ = ["parse_arm_pseudocode", "arm_semantics", "generate_arm_catalog"]
