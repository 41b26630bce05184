"""Tseitin bit-blasting of bitvector terms to CNF.

Each term lowers to a list of CNF literals, least-significant bit first.
Division/remainder and popcount are not circuit-encoded; terms containing
them raise :class:`NotBitblastable` and the high-level solver falls back
to exhaustive or randomized checking.
"""

from __future__ import annotations

from repro.perf import global_counters
from repro.smt.cnf import CnfBuilder
from repro.smt.terms import App, Const, Term, Var, term_uid


class NotBitblastable(Exception):
    """The term contains an operator with no circuit encoding."""


Bits = list[int]


class BitBlaster:
    """Lowers a term DAG into a :class:`CnfBuilder`, sharing subcircuits.

    The circuit cache is keyed on hash-consed *structural* uids, not
    ``id(term)``: structurally identical subterms are blasted once even
    across separate queries sharing this blaster, and a recycled object id
    (possible once the original term is garbage collected) can never alias
    an unrelated term's circuit.  Below the term level the builder hashes
    individual gates (:mod:`repro.smt.cnf`), so different terms that
    compute the same gate — a candidate's ``a ^ b`` and the spec adder's
    partial sum — share one variable too.
    """

    def __init__(self) -> None:
        self.cnf = CnfBuilder()
        self.var_bits: dict[str, Bits] = {}
        self._cache: dict[int, Bits] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def blast(self, term: Term) -> Bits:
        key = term_uid(term)
        cached = self._cache.get(key)
        perf = global_counters()
        if cached is not None:
            self.cache_hits += 1
            perf.blast_cache_hits += 1
            return cached
        self.cache_misses += 1
        perf.blast_cache_misses += 1
        bits = self._blast_node(term)
        assert len(bits) == term.width, f"{term}: {len(bits)} bits != {term.width}"
        self._cache[key] = bits
        return bits

    def input_bits(self, name: str, width: int) -> Bits:
        bits = self.var_bits.get(name)
        if bits is None:
            bits = self.cnf.new_vars(width)
            self.var_bits[name] = bits
        if len(bits) != width:
            raise ValueError(f"variable {name!r} used at widths {len(bits)} and {width}")
        return bits

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------

    def _blast_node(self, term: Term) -> Bits:
        if isinstance(term, Const):
            return [
                self.cnf.true_lit if (term.value >> i) & 1 else self.cnf.false_lit
                for i in range(term.width)
            ]
        if isinstance(term, Var):
            return self.input_bits(term.name, term.width)
        assert isinstance(term, App)
        handler = getattr(self, f"_op_{term.op}", None)
        if handler is None:
            raise NotBitblastable(term.op)
        return handler(term)

    # ------------------------------------------------------------------
    # Bitwise logic
    # ------------------------------------------------------------------

    def _op_bvand(self, term: App) -> Bits:
        a, b = (self.blast(x) for x in term.args)
        return [self.cnf.gate_and(x, y) for x, y in zip(a, b)]

    def _op_bvor(self, term: App) -> Bits:
        a, b = (self.blast(x) for x in term.args)
        return [self.cnf.gate_or(x, y) for x, y in zip(a, b)]

    def _op_bvxor(self, term: App) -> Bits:
        a, b = (self.blast(x) for x in term.args)
        return [self.cnf.gate_xor(x, y) for x, y in zip(a, b)]

    def _op_bvnot(self, term: App) -> Bits:
        return [-x for x in self.blast(term.args[0])]

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _ripple_add(self, a: Bits, b: Bits, carry_in: int) -> tuple[Bits, int]:
        out: Bits = []
        carry = carry_in
        for x, y in zip(a, b):
            total, carry = self.cnf.gate_full_adder(x, y, carry)
            out.append(total)
        return out, carry

    def _op_bvadd(self, term: App) -> Bits:
        a, b = (self.blast(x) for x in term.args)
        out, _ = self._ripple_add(a, b, self.cnf.false_lit)
        return out

    def _op_bvsub(self, term: App) -> Bits:
        a, b = (self.blast(x) for x in term.args)
        out, _ = self._ripple_add(a, [-y for y in b], self.cnf.true_lit)
        return out

    def _op_bvneg(self, term: App) -> Bits:
        a = self.blast(term.args[0])
        zero = [self.cnf.false_lit] * len(a)
        out, _ = self._ripple_add(zero, [-x for x in a], self.cnf.true_lit)
        return out

    def _op_bvmul(self, term: App) -> Bits:
        a, b = (self.blast(x) for x in term.args)
        width = len(a)
        acc = [self.cnf.false_lit] * width
        for shift, control in enumerate(b):
            partial = [self.cnf.false_lit] * shift + [
                self.cnf.gate_and(control, bit) for bit in a[: width - shift]
            ]
            acc, _ = self._ripple_add(acc, partial, self.cnf.false_lit)
        return acc

    def _op_bvabs(self, term: App) -> Bits:
        a = self.blast(term.args[0])
        negated = self._op_bvneg(term)
        sign = a[-1]
        return [self.cnf.gate_mux(sign, n, x) for n, x in zip(negated, a)]

    # ------------------------------------------------------------------
    # Shifts (barrel shifter; handles amounts >= width correctly)
    # ------------------------------------------------------------------

    def _shift(self, value: Bits, amount: Bits, kind: str) -> Bits:
        width = len(value)
        fill = value[-1] if kind == "ashr" else self.cnf.false_lit
        bits = list(value)
        # Mux stages for each bit of the shift amount that is < width.
        stage = 0
        while (1 << stage) < width and stage < len(amount):
            distance = 1 << stage
            control = amount[stage]
            shifted: Bits = [None] * width  # type: ignore[list-item]
            for i in range(width):
                if kind == "shl":
                    source = bits[i - distance] if i >= distance else self.cnf.false_lit
                else:
                    source = bits[i + distance] if i + distance < width else fill
                shifted[i] = self.cnf.gate_mux(control, source, bits[i])
            bits = shifted
            stage += 1
        # Any higher amount bit set means the whole value shifts out.
        overflow = self.cnf.false_lit
        for j in range(stage, len(amount)):
            overflow = self.cnf.gate_or(overflow, amount[j])
        return [self.cnf.gate_mux(overflow, fill, bit) for bit in bits]

    def _op_bvshl(self, term: App) -> Bits:
        value, amount = (self.blast(x) for x in term.args)
        return self._shift(value, amount, "shl")

    def _op_bvlshr(self, term: App) -> Bits:
        value, amount = (self.blast(x) for x in term.args)
        return self._shift(value, amount, "lshr")

    def _op_bvashr(self, term: App) -> Bits:
        value, amount = (self.blast(x) for x in term.args)
        return self._shift(value, amount, "ashr")

    def _rotate(self, term: App, left: bool) -> Bits:
        # Amount bits >= log2(width): rotation is modular, and for power-of-two
        # widths those bits contribute full rotations (no-ops).  Non-power-of-two
        # widths would need modular reduction; our ISAs only rotate po2 widths.
        # Refuse before blasting anything, so a shared builder keeps no gates
        # for a term it cannot encode.
        width = term.width
        if width & (width - 1):
            raise NotBitblastable("rotate on non-power-of-two width")
        value, amount = (self.blast(x) for x in term.args)
        bits = list(value)
        stage = 0
        while (1 << stage) < width and stage < len(amount):
            distance = 1 << stage
            control = amount[stage]
            if left:
                rotated = [bits[(i - distance) % width] for i in range(width)]
            else:
                rotated = [bits[(i + distance) % width] for i in range(width)]
            bits = [self.cnf.gate_mux(control, r, b) for r, b in zip(rotated, bits)]
            stage += 1
        return bits

    def _op_bvrotl(self, term: App) -> Bits:
        return self._rotate(term, left=True)

    def _op_bvrotr(self, term: App) -> Bits:
        return self._rotate(term, left=False)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------

    def _equal(self, a: Bits, b: Bits) -> int:
        diff = self.cnf.false_lit
        for x, y in zip(a, b):
            diff = self.cnf.gate_or(diff, self.cnf.gate_xor(x, y))
        return -diff

    def _unsigned_less(self, a: Bits, b: Bits) -> int:
        # a < b  <=>  borrow out of (a - b).
        _, carry = self._ripple_add(a, [-y for y in b], self.cnf.true_lit)
        return -carry

    def _signed_less(self, a: Bits, b: Bits) -> int:
        # Flip sign bits to map signed order onto unsigned order.
        a2 = a[:-1] + [-a[-1]]
        b2 = b[:-1] + [-b[-1]]
        return self._unsigned_less(a2, b2)

    def _compare(self, term: App) -> tuple[Bits, Bits]:
        a, b = (self.blast(x) for x in term.args)
        return a, b

    def _op_bveq(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [self._equal(a, b)]

    def _op_bvne(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [-self._equal(a, b)]

    def _op_bvult(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [self._unsigned_less(a, b)]

    def _op_bvule(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [-self._unsigned_less(b, a)]

    def _op_bvugt(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [self._unsigned_less(b, a)]

    def _op_bvuge(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [-self._unsigned_less(a, b)]

    def _op_bvslt(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [self._signed_less(a, b)]

    def _op_bvsle(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [-self._signed_less(b, a)]

    def _op_bvsgt(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [self._signed_less(b, a)]

    def _op_bvsge(self, term: App) -> Bits:
        a, b = self._compare(term)
        return [-self._signed_less(a, b)]

    # ------------------------------------------------------------------
    # Min / max via compare + mux
    # ------------------------------------------------------------------

    def _mux_bits(self, sel: int, when_true: Bits, when_false: Bits) -> Bits:
        return [self.cnf.gate_mux(sel, t, f) for t, f in zip(when_true, when_false)]

    def _op_bvsmin(self, term: App) -> Bits:
        a, b = self._compare(term)
        return self._mux_bits(self._signed_less(a, b), a, b)

    def _op_bvsmax(self, term: App) -> Bits:
        a, b = self._compare(term)
        return self._mux_bits(self._signed_less(a, b), b, a)

    def _op_bvumin(self, term: App) -> Bits:
        a, b = self._compare(term)
        return self._mux_bits(self._unsigned_less(a, b), a, b)

    def _op_bvumax(self, term: App) -> Bits:
        a, b = self._compare(term)
        return self._mux_bits(self._unsigned_less(a, b), b, a)

    # ------------------------------------------------------------------
    # Saturating arithmetic (widen by one bit, clamp)
    # ------------------------------------------------------------------

    def _clamp_signed(self, wide: Bits, width: int) -> Bits:
        """Clamp a (width+1)-bit signed value into width bits."""
        smax = [self.cnf.true_lit] * (width - 1) + [self.cnf.false_lit]
        smin = [self.cnf.false_lit] * (width - 1) + [self.cnf.true_lit]
        sign = wide[-1]
        # Overflow iff the top two bits of the widened result differ.
        overflow = self.cnf.gate_xor(wide[-1], wide[-2])
        clamped = self._mux_bits(sign, smin, smax)
        return self._mux_bits(overflow, clamped, wide[:width])

    def _op_bvsaddsat(self, term: App) -> Bits:
        a, b = self._compare(term)
        wide_a = a + [a[-1]]
        wide_b = b + [b[-1]]
        wide, _ = self._ripple_add(wide_a, wide_b, self.cnf.false_lit)
        return self._clamp_signed(wide, len(a))

    def _op_bvssubsat(self, term: App) -> Bits:
        a, b = self._compare(term)
        wide_a = a + [a[-1]]
        wide_b = [-y for y in b] + [-b[-1]]
        wide, _ = self._ripple_add(wide_a, wide_b, self.cnf.true_lit)
        return self._clamp_signed(wide, len(a))

    def _op_bvuaddsat(self, term: App) -> Bits:
        a, b = self._compare(term)
        total, carry = self._ripple_add(a, b, self.cnf.false_lit)
        all_ones = [self.cnf.true_lit] * len(a)
        return self._mux_bits(carry, all_ones, total)

    def _op_bvusubsat(self, term: App) -> Bits:
        a, b = self._compare(term)
        total, carry = self._ripple_add(a, [-y for y in b], self.cnf.true_lit)
        zeros = [self.cnf.false_lit] * len(a)
        # carry==1 means no borrow, i.e. a >= b.
        return self._mux_bits(carry, total, zeros)

    # ------------------------------------------------------------------
    # Averages (widen by one bit, optional round bit, drop the low bit)
    # ------------------------------------------------------------------

    def _average(self, term: App, signed: bool, round_up: bool) -> Bits:
        a, b = self._compare(term)
        ext = (lambda bits: bits + [bits[-1]]) if signed else (
            lambda bits: bits + [self.cnf.false_lit]
        )
        carry = self.cnf.true_lit if round_up else self.cnf.false_lit
        wide, _ = self._ripple_add(ext(a), ext(b), carry)
        return wide[1:]

    def _op_bvuavg(self, term: App) -> Bits:
        return self._average(term, signed=False, round_up=False)

    def _op_bvsavg(self, term: App) -> Bits:
        return self._average(term, signed=True, round_up=False)

    def _op_bvuavg_round(self, term: App) -> Bits:
        return self._average(term, signed=False, round_up=True)

    def _op_bvsavg_round(self, term: App) -> Bits:
        return self._average(term, signed=True, round_up=True)

    def _op_bvsshlsat(self, term: App) -> Bits:
        value_term, amount_term = term.args
        if not isinstance(amount_term, Const):
            raise NotBitblastable("bvsshlsat with symbolic shift amount")
        a = self.blast(value_term)
        width = len(a)
        shift = amount_term.value
        if shift >= width:
            shift = width
        # Widen so the shift is exact, then clamp stepwise back to width.
        wide = a + [a[-1]] * (shift + 1)
        shifted = [self.cnf.false_lit] * shift + wide[: len(wide) - shift]
        while len(shifted) > width + 1:
            shifted = self._clamp_signed(shifted, len(shifted) - 1)
        return self._clamp_signed(shifted, width)

    # ------------------------------------------------------------------
    # Structure / width changes
    # ------------------------------------------------------------------

    def _op_extract(self, term: App) -> Bits:
        high, low = term.params
        return self.blast(term.args[0])[low : high + 1]

    def _op_concat(self, term: App) -> Bits:
        high_part, low_part = term.args
        return self.blast(low_part) + self.blast(high_part)

    def _op_zext(self, term: App) -> Bits:
        bits = self.blast(term.args[0])
        return bits + [self.cnf.false_lit] * (term.params[0] - len(bits))

    def _op_sext(self, term: App) -> Bits:
        bits = self.blast(term.args[0])
        return bits + [bits[-1]] * (term.params[0] - len(bits))

    def _op_trunc(self, term: App) -> Bits:
        return self.blast(term.args[0])[: term.params[0]]

    def _op_saturate_to_signed(self, term: App) -> Bits:
        bits = self.blast(term.args[0])
        target = term.params[0]
        while len(bits) > target + 1:
            bits = self._clamp_signed(bits, len(bits) - 1)
        if len(bits) == target + 1:
            bits = self._clamp_signed(bits, target)
        return bits

    def _op_saturate_to_unsigned(self, term: App) -> Bits:
        bits = self.blast(term.args[0])
        target = term.params[0]
        sign = bits[-1]
        # Any high bit set (and not negative) saturates to umax; negative to 0.
        high_or = self.cnf.false_lit
        for bit in bits[target:]:
            high_or = self.cnf.gate_or(high_or, bit)
        low = bits[:target]
        all_ones = [self.cnf.true_lit] * target
        zeros = [self.cnf.false_lit] * target
        saturated = self._mux_bits(high_or, all_ones, low)
        return self._mux_bits(sign, zeros, saturated)

    def _op_ite(self, term: App) -> Bits:
        cond = self.blast(term.args[0])[0]
        then_bits = self.blast(term.args[1])
        else_bits = self.blast(term.args[2])
        return self._mux_bits(cond, then_bits, else_bits)
