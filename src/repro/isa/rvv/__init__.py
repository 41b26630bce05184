"""Synthetic RVV (RISC-V vector) target: VL-agnostic specs + dialect table."""

from repro.isa.rvv.parser import parse_rvv_pseudocode, rvv_semantics
from repro.isa.rvv.specgen import (
    LMULS,
    SEWS,
    VLEN_SOLVER,
    generate_rvv_catalog,
)

__all__ = [
    "LMULS",
    "SEWS",
    "VLEN_SOLVER",
    "generate_rvv_catalog",
    "parse_rvv_pseudocode",
    "rvv_semantics",
]
