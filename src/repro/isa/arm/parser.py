"""The ARM ASL-style pseudocode dialect.

ARM's architecture specification language writes NEON behaviour with
``Elem`` accessors over typed vectors::

    for e = 0 to 7
        Elem[result, e, 16] = SatS(SExt(Elem[operand1, e, 16], 32) +
                                   SExt(Elem[operand2, e, 16], 32), 16)
    endfor

``Elem[v, e, width]`` reads (or, as an assignment target, writes) the
``e``-th ``width``-bit element of ``v``.  Width-changing functions take
the target width as an explicit second argument (``SExt(x, 32)``), unlike
the suffix-style names of the x86 dialect — each vendor's surface syntax
gets its own dialect table, where the paper wrote a parser per vendor.
"""

from __future__ import annotations

from functools import partial

from repro.isa.pseudo_core import Dialect, dialect_semantics, parse_pseudocode

DIALECT = Dialect(
    output="result",
    assign="=",
    keywords={
        "for": "for",
        "to": "to",
        "endfor": "endfor",
        "if": "if",
        "then": "then",
        "else": "else",
        "endif": "endif",
        "elem": "Elem",
    },
    c_style=False,
    elem_suffixes={},
    symbolic_elem_width=False,
    builtins={
        "SExt": "sign_extend",
        "UExt": "zero_extend",
        "Trunc": "truncate",
        "SatS": "saturate_signed",
        "SatU": "saturate_unsigned",
        "MinS": "min_signed",
        "MaxS": "max_signed",
        "MinU": "min_unsigned",
        "MaxU": "max_unsigned",
        "Abs": "abs",
        "SAddSat": "sat_add_signed",
        "UAddSat": "sat_add_unsigned",
        "SSubSat": "sat_sub_signed",
        "USubSat": "sat_sub_unsigned",
        "SHalvingAdd": "avg_signed",
        "UHalvingAdd": "avg_unsigned",
        "SRHalvingAdd": "avg_signed_round",
        "URHalvingAdd": "avg_unsigned_round",
        "CountBits": "popcount",
    },
    cast_prefixes={},
    params={},
)

parse_arm_pseudocode = partial(parse_pseudocode, DIALECT)
arm_semantics = partial(dialect_semantics, DIALECT)
