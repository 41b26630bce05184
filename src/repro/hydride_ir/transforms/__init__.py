"""Canonicalising transformations on Hydride IR.

The Similarity Checking Engine requires every instruction's semantics in a
canonical shape — "at least two loops in a loop nest: one outer loop over
lanes, an inner loop over elements in a lane" — before constants are
extracted.  These transforms produce that shape:

* :func:`repro.hydride_ir.transforms.reroll.reroll` turns an explicit
  per-element concatenation — pseudocode the parser had to unroll — back
  into a loop,
* :func:`repro.hydride_ir.transforms.constprop.propagate_constants`
  re-folds index arithmetic and prunes degenerate nodes,
* :func:`repro.hydride_ir.transforms.canonicalize.canonicalize` drives the
  pipeline, inserts the artificial single-iteration inner loop for pure
  SIMD instructions and gives the loops canonical names.
"""

from repro.hydride_ir.transforms.canonicalize import canonicalize
from repro.hydride_ir.transforms.constprop import propagate_constants
from repro.hydride_ir.transforms.reroll import reroll
from repro.hydride_ir.transforms.rewrite import rewrite_bottom_up

__all__ = ["canonicalize", "propagate_constants", "reroll", "rewrite_bottom_up"]
