"""The Qualcomm HVX programmer's-reference-manual C dialect.

The HVX PRM writes instruction behaviour as C-flavoured loops over typed
element accessors::

    for (i = 0; i < 32; i++) {
        Vd.w[i] = sat32(sxt64(Vu.w[i]) + sxt64(Vv.w[i]));
    }

Element accessors carry the width: ``.b``/``.ub`` are 8-bit, ``.h``/
``.uh`` 16-bit, ``.w``/``.uw`` 32-bit (signedness is expressed by the
functions applied, as in the manual).  Statements are C: ``for`` with
``i++`` steps, ``if/else`` with braces, and ``;``-terminated assignments.
Right shift ``>>`` is logical and ``>>>`` arithmetic — the explicit split
the paper had to patch into the vendor pseudocode by hand.
"""

from __future__ import annotations

from functools import partial

from repro.isa.pseudo_core import Dialect, dialect_semantics, parse_pseudocode

DIALECT = Dialect(
    output="Vd",
    assign="=",
    keywords={"for": "for", "if": "if", "else": "else"},
    c_style=True,
    elem_suffixes={"b": 8, "ub": 8, "h": 16, "uh": 16, "w": 32, "uw": 32},
    symbolic_elem_width=False,
    builtins={
        "min_s": "min_signed",
        "max_s": "max_signed",
        "min_u": "min_unsigned",
        "max_u": "max_unsigned",
        "abs": "abs",
        "addsat_s": "sat_add_signed",
        "addsat_u": "sat_add_unsigned",
        "subsat_s": "sat_sub_signed",
        "subsat_u": "sat_sub_unsigned",
        "avg_s": "avg_signed",
        "avg_u": "avg_unsigned",
        "avgrnd_s": "avg_signed_round",
        "avgrnd_u": "avg_unsigned_round",
        "popcount": "popcount",
    },
    # sxt32(x), zxt16(x), sat8(x), usat16(x), trunc8(x), fullmask32(x)
    cast_prefixes={
        "sxt": "sext",
        "zxt": "zext",
        "sat": "saturate_to_signed",
        "usat": "saturate_to_unsigned",
        "trunc": "trunc",
        "fullmask": "sext",
    },
    params={},
)

parse_hvx_pseudocode = partial(parse_pseudocode, DIALECT)
hvx_semantics = partial(dialect_semantics, DIALECT)
