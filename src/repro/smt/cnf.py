"""CNF formula container with Tseitin gate helpers.

Literals use the DIMACS convention: a positive integer ``v`` is variable
``v``, ``-v`` is its negation.  Variable 0 is never used.  Two reserved
variables encode the constants true/false so gate encodings never need
special cases for constant inputs.

Gates are structurally hashed, as an AIG bit-blaster hashes its nodes:
``gate_and`` / ``gate_xor`` / ``gate_mux`` memoise on a normalised key
and a repeated gate returns the literal that already exists.  AND keys on
its sorted operand pair; XOR strips both operand signs into an output
parity; MUX makes its selector positive by swapping the arms.  OR and
the full adder are built from these, so they share for free.  Two terms
that compute the same gate — a candidate's ``a ^ b`` and the spec
adder's partial sum — thus get one Tseitin variable, and a miter
``xor(x, x)`` folds to false instead of being rediscovered by the solver
one conflict at a time.  Hashing only ever returns an existing literal;
it never adds a clause.

Every gate created is also appended to :attr:`CnfBuilder.gates` as
``(out, kind, operands)``, in creation order, so a gate's operands always
precede it.  That list is the circuit itself: :mod:`repro.smt.simulate`
evaluates it bit-parallel without going through the clauses.
"""

from __future__ import annotations

# Gate kinds recorded in CnfBuilder.gates.
AND, XOR, MUX = "and", "xor", "mux"


class CnfBuilder:
    """Accumulates clauses and allocates fresh variables."""

    def __init__(self) -> None:
        self._next_var = 1
        self.clauses: list[tuple[int, ...]] = []
        # Gate tables: normalised operand key -> output literal.
        self._and: dict[tuple[int, int], int] = {}
        self._xor: dict[tuple[int, int], int] = {}
        self._mux: dict[tuple[int, int, int], int] = {}
        # Every gate created, in creation order: (out, kind, operands),
        # kind one of AND / XOR / MUX, operands as keyed above.
        self.gates: list[tuple[int, str, tuple[int, ...]]] = []
        # Reserved constant-true variable; its clause pins it true, and
        # ``-self.true_lit`` serves as constant false.
        self.true_lit = self.new_var()
        self.add_clause([self.true_lit])

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    @property
    def num_vars(self) -> int:
        return self._next_var - 1

    def new_var(self) -> int:
        v = self._next_var
        self._next_var += 1
        return v

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: list[int]) -> None:
        self.clauses.append(tuple(lits))

    # ------------------------------------------------------------------
    # Gates.  Each returns the output literal.
    # ------------------------------------------------------------------

    def gate_and(self, a: int, b: int) -> int:
        if a == self.false_lit or b == self.false_lit:
            return self.false_lit
        if a == self.true_lit:
            return b
        if b == self.true_lit:
            return a
        if a == b:
            return a
        if a == -b:
            return self.false_lit
        if a > b:
            a, b = b, a
        key = (a, b)
        out = self._and.get(key)
        if out is None:
            out = self._and[key] = self.new_var()
            self.gates.append((out, AND, key))
            self.add_clause([-out, a])
            self.add_clause([-out, b])
            self.add_clause([out, -a, -b])
        return out

    def gate_or(self, a: int, b: int) -> int:
        return -self.gate_and(-a, -b)

    def gate_xor(self, a: int, b: int) -> int:
        if a == self.false_lit:
            return b
        if b == self.false_lit:
            return a
        if a == self.true_lit:
            return -b
        if b == self.true_lit:
            return -a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        # xor(-a, b) == -xor(a, b): key on the unsigned operands.
        negated = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        if a > b:
            a, b = b, a
        key = (a, b)
        out = self._xor.get(key)
        if out is None:
            out = self._xor[key] = self.new_var()
            self.gates.append((out, XOR, key))
            self.add_clause([-out, a, b])
            self.add_clause([-out, -a, -b])
            self.add_clause([out, -a, b])
            self.add_clause([out, a, -b])
        return -out if negated else out

    def gate_mux(self, sel: int, when_true: int, when_false: int) -> int:
        """``sel ? when_true : when_false``."""
        if sel == self.true_lit:
            return when_true
        if sel == self.false_lit:
            return when_false
        if when_true == when_false:
            return when_true
        if sel < 0:
            sel, when_true, when_false = -sel, when_false, when_true
        key = (sel, when_true, when_false)
        out = self._mux.get(key)
        if out is None:
            out = self._mux[key] = self.new_var()
            self.gates.append((out, MUX, key))
            self.add_clause([-out, -sel, when_true])
            self.add_clause([-out, sel, when_false])
            self.add_clause([out, -sel, -when_true])
            self.add_clause([out, sel, -when_false])
        return out

    def gate_full_adder(self, a: int, b: int, carry_in: int) -> tuple[int, int]:
        """Returns ``(sum, carry_out)``."""
        partial = self.gate_xor(a, b)
        total = self.gate_xor(partial, carry_in)
        carry_out = self.gate_or(self.gate_and(a, b), self.gate_and(partial, carry_in))
        return total, carry_out

    def assert_lit(self, lit: int) -> None:
        self.add_clause([lit])

    def gate_big_or(self, lits: list[int]) -> int:
        out = self.false_lit
        for lit in lits:
            out = self.gate_or(out, lit)
        return out
