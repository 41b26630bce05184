"""The Intel-intrinsics-guide pseudocode dialect.

The dialect looks like the operation sections of the Intel Intrinsics
Guide::

    FOR j := 0 to 7
        i := j*32
        dst[i+31:i] := SignExtend32(a[i+15:i]) * SignExtend32(b[i+15:i])
    ENDFOR

Supported statements: ``FOR v := e to e ... ENDFOR``, ``IF c THEN ...
[ELSE ...] FI`` (with data-dependent 1-bit conditions for AVX-512
masking), slice/temp assignment with ``:=``, and ``DEFINE name(args) ...
RETURN e ENDDEF`` helper functions which are inlined during lowering.

Width-changing helpers use Intel's suffix style (``SignExtend32``,
``ZeroExtend64``, ``Saturate16``, ``SaturateU8``); comparison operators are
explicitly signed (``<s``) or unsigned (``<u``) because the instruction —
not the operator — determines signedness in the real manuals, which is
exactly the ambiguity the paper reports having to patch by hand.
"""

from __future__ import annotations

from functools import partial

from repro.isa.pseudo_core import Dialect, dialect_semantics, parse_pseudocode

DIALECT = Dialect(
    output="dst",
    assign=":=",
    keywords={
        "for": "FOR",
        "to": "to",
        "endfor": "ENDFOR",
        "if": "IF",
        "then": "THEN",
        "else": "ELSE",
        "endif": "FI",
        "define": "DEFINE",
        "return": "RETURN",
        "enddef": "ENDDEF",
    },
    c_style=False,
    elem_suffixes={},
    symbolic_elem_width=False,
    builtins={
        "MIN_S": "min_signed",
        "MAX_S": "max_signed",
        "MIN_U": "min_unsigned",
        "MAX_U": "max_unsigned",
        "ABS": "abs",
        "AVG_U_RND": "avg_unsigned_round",
        "AddSatS": "sat_add_signed",
        "AddSatU": "sat_add_unsigned",
        "SubSatS": "sat_sub_signed",
        "SubSatU": "sat_sub_unsigned",
        "RotR": "rotate_right",
        "RotL": "rotate_left",
    },
    cast_prefixes={
        "SignExtend": "sext",
        "ZeroExtend": "zext",
        "Saturate": "saturate_to_signed",
        "SaturateU": "saturate_to_unsigned",
        "Truncate": "trunc",
        # FullMaskN turns a 1-bit predicate into an all-ones/all-zeros
        # element, the idiom compare instructions use for their result lanes.
        "FullMask": "sext",
    },
    params={},
)

parse_x86_pseudocode = partial(parse_pseudocode, DIALECT)
x86_semantics = partial(dialect_semantics, DIALECT)
