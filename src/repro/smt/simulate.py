"""Bit-parallel simulation of a blasted miter over its whole input space.

A pair of terms over at most :data:`SIMULATION_INPUT_LIMIT` input bits is
decided without a SAT query: both are blasted into one throwaway
:class:`~repro.smt.bitblast.BitBlaster`, every input bit gets its
truth-table column (one Python int, bit ``p`` of which is that input's
value at point ``p``), and the builder's gate list is evaluated once
with ``&``, ``^`` and the mux identity ``f ^ (s & (t ^ f))``.  Two output
bits are equal on every input exactly when their columns are equal.

The points are simulated in chunks of ``2 ** SIMULATION_CHUNK_BITS``:
input bits below the chunk width vary inside a column, the ones above
are constant per chunk, so no column holds more than 4,096 bits.  A gate
budget bounds one call to a few milliseconds.  Nothing here draws
randomness, so a verdict is complete, like the SAT rung's.
"""

from __future__ import annotations

from repro.smt.bitblast import BitBlaster, NotBitblastable
from repro.smt.cnf import AND, XOR
from repro.smt.terms import Term

# Pairs with more input bits than this are left to the other rungs.
SIMULATION_INPUT_LIMIT = 16

# log2 of the points evaluated per pass over the gate list.
SIMULATION_CHUNK_BITS = 12

# Gate evaluations (gates x chunks) one call may spend; above it the
# simulator has no opinion.
SIMULATION_GATE_BUDGET = 20_000


def _columns(chunk_bits: int, full: int) -> list[int]:
    """The truth-table columns of the ``chunk_bits`` low input bits over
    one chunk of ``2 ** chunk_bits`` points (``full`` has that many ones)."""
    columns = []
    for i in range(chunk_bits):
        half = 1 << i
        # Ones in the upper half of each 2*half-point block, repeated.
        block = ((1 << half) - 1) << half
        columns.append(block * (full // ((1 << (2 * half)) - 1)))
    return columns


def simulate_equal(a: Term, b: Term) -> bool | None:
    """True when ``a`` and ``b`` agree on every input, False when some
    input tells them apart, None when the pair is out of reach: more than
    :data:`SIMULATION_INPUT_LIMIT` input bits, an operator with no circuit
    encoding, a circuit over the gate budget, or a circuit variable that
    is neither an input, the constant nor a recorded gate."""
    if a.width != b.width:
        return False
    variables = dict(a.variables())
    variables.update(b.variables())
    if sum(variables.values()) > SIMULATION_INPUT_LIMIT:
        return None
    blaster = BitBlaster()
    try:
        bits_a = blaster.blast(a)
        bits_b = blaster.blast(b)
    except NotBitblastable:
        return None
    cnf = blaster.cnf
    inputs = [v for name in sorted(blaster.var_bits) for v in blaster.var_bits[name]]
    n = len(inputs)
    chunk_bits = min(n, SIMULATION_CHUNK_BITS)
    chunks = 1 << (n - chunk_bits)
    gates = cnf.gates
    if len(gates) * chunks > SIMULATION_GATE_BUDGET:
        return None
    if 1 + n + len(gates) != cnf.num_vars:
        return None  # some variable the simulation cannot give a value
    full = (1 << (1 << chunk_bits)) - 1
    columns = _columns(chunk_bits, full)
    true_var = cnf.true_lit
    outputs = list(zip(bits_a, bits_b))
    val = [0] * (cnf.num_vars + 1)
    for chunk in range(chunks):
        val[true_var] = full
        for i, v in enumerate(inputs):
            if i < chunk_bits:
                val[v] = columns[i]
            else:
                val[v] = full if (chunk >> (i - chunk_bits)) & 1 else 0
        for out, kind, operands in gates:
            x = operands[0]
            x = val[x] if x > 0 else val[-x] ^ full
            y = operands[1]
            y = val[y] if y > 0 else val[-y] ^ full
            if kind == AND:
                val[out] = x & y
            elif kind == XOR:
                val[out] = x ^ y
            else:
                # mux(s, t, f) with s = x, t = y.
                f = operands[2]
                f = val[f] if f > 0 else val[-f] ^ full
                val[out] = f ^ (x & (y ^ f))
        for x, y in outputs:
            x = val[x] if x > 0 else val[-x] ^ full
            y = val[y] if y > 0 else val[-y] ^ full
            if x != y:
                return False
    return True
