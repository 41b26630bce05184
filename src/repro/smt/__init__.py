"""Solver substrate: symbolic bitvectors, bit-blasting, and CDCL SAT.

The paper uses Rosette (backed by an SMT solver) to verify instruction
equivalence and to drive CEGIS.  No SMT solver is available offline, so
this package implements the slice of QF_BV that Hydride needs:

* :mod:`repro.smt.terms` — symbolic bitvector expression language,
* :mod:`repro.smt.eval` — concrete evaluation of terms,
* :mod:`repro.smt.simplify` — constant folding and algebraic identities,
* :mod:`repro.smt.cnf` / :mod:`repro.smt.sat` — CNF formulas and a CDCL
  SAT solver with two-watched-literal propagation,
* :mod:`repro.smt.bitblast` — Tseitin translation of terms to CNF,
* :mod:`repro.smt.solver` — the high-level equivalence interface
  (structural fast path, exhaustive enumeration for tiny input spaces,
  bit-blasting otherwise — one lane per symmetry class where the pair
  allows it — randomized fallback for unsupported operators).

The paper's key tractability trick — scaling vectors down before solving —
is exactly what makes a from-scratch solver adequate here: scaled queries
have small bitwidths, where bit-blasting plus CDCL is a complete decision
procedure.
"""

from repro.smt.terms import App, Const, Term, Var, const, var
from repro.smt.eval import evaluate
from repro.smt.solver import CheckResult, EquivalenceChecker

__all__ = [
    "App",
    "Const",
    "Term",
    "Var",
    "const",
    "var",
    "evaluate",
    "CheckResult",
    "EquivalenceChecker",
]
