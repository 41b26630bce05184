"""The RVV-style vector-length-agnostic pseudocode dialect.

RISC-V's vector specification writes instruction behaviour against a
*symbolic* machine configuration: the hardware vector length ``VLEN``,
the register-group multiplier ``LMUL`` and the element width ``SEW``
never appear as literals.  A typical body reads::

    vl = (VLEN * LMUL) / SEW
    for i = 0 to vl - 1
        Elem[vd, i, SEW] = Elem[vs2, i, SEW] + Elem[vs1, i, SEW]
    endfor

Unlike the ARM dialect — whose ``Elem[v, e, 16]`` takes a *literal*
width — ``Elem[v, i, SEW]`` takes a full expression.  The parser
desugars it into a bit slice whose bounds are index expressions
(``v[(i+1)*SEW-1 : i*SEW]``), so the width stays symbolic until the
lowering binds ``VLEN``/``LMUL``/``SEW`` to solver-tractable concrete
values from the spec's attributes (``DIALECT.params`` below).  That is
the same scale-down move the synthesis layer makes when it shrinks
native-width windows: semantics are written once, agnostic of VL, and
instantiated at whatever width the solver can afford.
"""

from __future__ import annotations

from functools import partial

from repro.isa.pseudo_core import Dialect, dialect_semantics, parse_pseudocode

DIALECT = Dialect(
    output="vd",
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
    symbolic_elem_width=True,
    builtins={
        "sext": "sign_extend",
        "zext": "zero_extend",
        "trunc": "truncate",
        "sat_s": "saturate_signed",
        "sat_u": "saturate_unsigned",
        "min_s": "min_signed",
        "max_s": "max_signed",
        "min_u": "min_unsigned",
        "max_u": "max_unsigned",
        "abs": "abs",
        "sadd_sat": "sat_add_signed",
        "uadd_sat": "sat_add_unsigned",
        "ssub_sat": "sat_sub_signed",
        "usub_sat": "sat_sub_unsigned",
        "avg_s": "avg_signed_round",
        "avg_u": "avg_unsigned_round",
        "popcount": "popcount",
    },
    cast_prefixes={},
    # The symbolic machine parameters every rvv spec binds at lowering time.
    params={"VLEN": "vlen", "LMUL": "lmul", "SEW": "sew"},
)

parse_rvv_pseudocode = partial(parse_pseudocode, DIALECT)
rvv_semantics = partial(dialect_semantics, DIALECT)
