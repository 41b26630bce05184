"""The Similarity Checking Engine (paper Section 3).

Given the canonicalised Hydride IR semantics of every instruction in one
or more ISAs, this package:

1. extracts instruction-specific constants into symbolic parameters, using
   a bitwidth analysis over operator legality so that widths forced to be
   equal become a single parameter (:mod:`repro.similarity.constants`);
2. groups instructions into *equivalence classes*: ``I`` and ``J`` are
   similar when their parameterized semantics agree under the same
   concrete parameter assignment, verified with the solver ladder
   (:mod:`repro.similarity.equivalence`);
3. retries near-misses with permuted argument orders
   (``_mm512_mask_blend`` vs ``_mm512_mask_mov``) and with synthesized
   *holes* added to slice offsets (``unpacklo`` vs ``unpackhi``)
   (:mod:`repro.similarity.holes`);
4. eliminates parameters that are constant across an entire class
   (:mod:`repro.similarity.engine`).

The resulting :class:`~repro.similarity.eqclass.EquivalenceClass` set is
the input to AutoLLVM IR generation.
"""

from repro.similarity.constants import SymbolicSemantics, extract_constants
from repro.similarity.eqclass import EquivalenceClass
from repro.similarity.engine import SimilarityEngine

__all__ = [
    "SymbolicSemantics",
    "extract_constants",
    "EquivalenceClass",
    "SimilarityEngine",
]
