"""Shared machinery for the vendor pseudocode dialects.

Each ISA (x86, HVX, ARM, RVV) writes its manual in its own surface
syntax — keywords, assignment token, block form, element accessors and
builtin names differ, as the vendors' manuals do — but the differences
are *data*: a :class:`Dialect` table per ISA drives the one
:class:`Parser` defined here.  Every dialect parses into the small
statement/expression AST below, which is then *lowered* to Hydride IR:

* the loop nest that writes the destination is lowered *as loops*: its
  body is lowered once with the loop variables kept symbolic, and the
  result is the ``ForConcat`` nest that loop rerolling would recover
  (:func:`_loop_nest` decides, on the pseudocode alone, which nests
  qualify);
* every other ``FOR`` runs with concrete bounds (vendor pseudocode always
  has literal trip counts), producing one slice assignment per element,
  and the slices are re-rolled by :mod:`repro.hydride_ir.transforms`;
* helper ``DEFINE`` functions are inlined at call sites;
* data-dependent ``IF`` (AVX-512 masking) merges branch assignments into
  ``BvIte`` nodes;
* the resulting slice assignments must tile the destination register
  exactly and become a ``BvConcat``.

This mirrors the paper's flow where parsed semantics are canonicalised by
"function inlining, loop rerolling, etc." before similarity checking.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest
from typing import NamedTuple

from repro.hydride_ir.ast import (
    BvBinOp,
    BvCast,
    BvCmp,
    BvConcat,
    BvConst,
    BvExpr,
    BvExtract,
    BvIte,
    BvUnOp,
    BvVar,
    ForConcat,
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IBin, IConst, IndexExpr, IVar
from repro.hydride_ir.transforms.rewrite import rewrite_bottom_up, with_index_exprs
from repro.isa.spec import InstructionSpec
from repro.perf import global_counters


class PseudocodeError(Exception):
    """Raised on malformed pseudocode or an ill-typed lowering."""


# ----------------------------------------------------------------------
# Lexer toolkit
# ----------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'sym' | 'eof'
    text: str
    line: int


class Lexer:
    """Regex tokenizer over a symbol set; ``//`` and ``#`` start comments."""

    def __init__(
        self, symbols: list[str], line_comments: tuple[str, ...] = ("//", "#")
    ) -> None:
        # Longest symbols first so '>=' wins over '>'.
        ordered = sorted(symbols, key=len, reverse=True)
        sym_pattern = "|".join(re.escape(s) for s in ordered)
        comment_pattern = "|".join(
            re.escape(c) + "[^\\n]*" for c in line_comments
        )
        self._regex = re.compile(
            rf"(?P<ws>[ \t]+)"
            rf"|(?P<comment>{comment_pattern})"
            rf"|(?P<newline>\n)"
            rf"|(?P<hex>0[xX][0-9a-fA-F]+)"
            rf"|(?P<int>\d+)"
            rf"|(?P<ident>[A-Za-z_][A-Za-z_0-9.]*)"
            rf"|(?P<sym>{sym_pattern})"
        )

    def tokenize(self, text: str) -> list[Token]:
        tokens: list[Token] = []
        line = 1
        pos = 0
        while pos < len(text):
            match = self._regex.match(text, pos)
            if match is None:
                raise PseudocodeError(
                    f"line {line}: cannot tokenize {text[pos:pos + 12]!r}"
                )
            pos = match.end()
            kind = match.lastgroup
            if kind == "ws" or kind == "comment":
                continue
            if kind == "newline":
                line += 1
                continue
            if kind == "hex":
                tokens.append(Token("int", str(int(match.group(), 16)), line))
            elif kind == "int":
                tokens.append(Token("int", match.group(), line))
            elif kind == "ident":
                tokens.append(Token("ident", match.group(), line))
            else:
                tokens.append(Token("sym", match.group(), line))
        tokens.append(Token("eof", "", line))
        return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        # ``next`` never moves past the final ``eof`` token.
        return self._tokens[self._pos]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self._pos += 1
        return token

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "eof":
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.next()
        if token.text != text:
            raise PseudocodeError(
                f"line {token.line}: expected {text!r}, found {token.text!r}"
            )
        return token

    def expect_kind(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise PseudocodeError(
                f"line {token.line}: expected {kind}, found {token.text!r}"
            )
        return token

    def at_end(self) -> bool:
        return self.peek().kind == "eof"


# ----------------------------------------------------------------------
# Dialect-independent pseudocode AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PExpr:
    pass


@dataclass(frozen=True)
class PInt(PExpr):
    value: int


@dataclass(frozen=True)
class PVar(PExpr):
    name: str


@dataclass(frozen=True)
class PSlice(PExpr):
    """``base[high:low]`` — a bit slice of a register or temp."""

    base: str
    high: PExpr
    low: PExpr


@dataclass(frozen=True)
class PElem(PExpr):
    """``base.<width>[index]`` — an element access (HVX/ARM styles)."""

    base: str
    elem_width: int
    index: PExpr


@dataclass(frozen=True)
class PBin(PExpr):
    op: str
    left: PExpr
    right: PExpr


@dataclass(frozen=True)
class PUn(PExpr):
    op: str
    operand: PExpr


@dataclass(frozen=True)
class PCall(PExpr):
    name: str
    args: tuple[PExpr, ...]


@dataclass(frozen=True)
class PCond(PExpr):
    """Ternary ``cond ? a : b``."""

    cond: PExpr
    then_expr: PExpr
    else_expr: PExpr


@dataclass(frozen=True)
class PStmt:
    pass


@dataclass(frozen=True)
class PAssign(PStmt):
    """Assignment to a slice/element of the destination or to a temp."""

    target: PExpr  # PVar | PSlice | PElem
    value: PExpr


@dataclass(frozen=True)
class PFor(PStmt):
    var: str
    start: PExpr
    end: PExpr  # inclusive
    body: tuple[PStmt, ...]


@dataclass(frozen=True)
class PIf(PStmt):
    cond: PExpr
    then_body: tuple[PStmt, ...]
    else_body: tuple[PStmt, ...]


@dataclass(frozen=True)
class PDefine(PStmt):
    """Helper function definition — inlined at call sites during lowering."""

    name: str
    params: tuple[str, ...]
    body: tuple[PStmt, ...]
    result: PExpr


@dataclass(frozen=True)
class Program:
    statements: tuple[PStmt, ...]


# ----------------------------------------------------------------------
# Dialects: what differs between the vendors' surface syntaxes, as data
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dialect:
    """One vendor's surface syntax.

    Everything the dialects share — the expression grammar, operator
    spellings, comments, ``base[high:low]`` slices — is fixed in
    :class:`Parser`; a field exists here only because two shipped
    dialects disagree on it.  A dialect is compared and hashed by
    identity (its tables are dicts), which is what lets
    :func:`dialect_builtin` memoise per dialect.
    """

    #: The destination register's name (``dst``, ``Vd``, ``result``, ``vd``).
    output: str
    #: The assignment token: Intel's ``:=`` or plain ``=``.
    assign: str
    #: Grammar role -> vendor spelling.  Keyword-block dialects spell
    #: ``for to endfor if then else endif``; the C dialect needs only
    #: ``for if else``.  Optional roles: ``define return enddef`` (helper
    #: functions) and ``elem`` (the ``Elem[reg, index, width]`` accessor).
    keywords: Mapping[str, str]
    #: C statement forms — ``for (i = 0; i < n; i++) { ... }``,
    #: ``if (c) { ... } else { ... }``, ``;``-terminated assignments —
    #: instead of keyword-delimited blocks.
    c_style: bool
    #: Typed element accessors ``reg.<suffix>[i]``: suffix -> element width.
    elem_suffixes: Mapping[str, int]
    #: Whether ``Elem``'s width is an expression (RVV's ``SEW``, ``SEW * 2``)
    #: rather than an integer literal (ARM's ``16``).
    symbolic_elem_width: bool
    #: Builtin spelling -> :data:`CORE_BUILTINS` key.
    builtins: Mapping[str, str]
    #: Width-suffixed casts: prefix -> cast op, so that with
    #: ``{"SignExtend": "sext"}`` the call ``SignExtend32(x)`` sign-extends
    #: ``x`` to 32 bits.
    cast_prefixes: Mapping[str, str]
    #: Symbolic machine parameter -> the ``spec.attributes`` key holding
    #: the value it is bound to at lowering time (RVV's VLEN/LMUL/SEW).
    params: Mapping[str, str]


# One symbol set for all dialects: a symbol a dialect has no use for is
# rejected by the parser, with a line number, instead of by the lexer.
_LEXER = Lexer([
    ":=", "==", "!=", "<=s", ">=s", "<s", ">s", "<=u", ">=u", "<u", ">u",
    "<=", ">=", "<<", ">>>", ">>", "++", "(", ")", "[", "]", "{", "}",
    ";", ",", ":", "?", "=", "<", ">", "+", "-", "*", "/", "%",
    "&", "|", "^", "~", ".",
])

_CMP_TOKENS = frozenset({
    "==", "!=", "<s", ">s", "<=s", ">=s", "<u", ">u", "<=u", ">=u",
    "<", ">", "<=", ">=",
})

# Left-associative binary operators -> binding power (higher binds tighter).
_BINARY_PRECEDENCE = {
    "|": 1,
    "^": 2,
    "&": 3,
    "<<": 4, ">>": 4, ">>>": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


class Parser:
    """Recursive-descent parser for every dialect, driven by its table."""

    def __init__(self, dialect: Dialect, text: str) -> None:
        self.dialect = dialect
        self.kw = dialect.keywords
        self.reserved = frozenset(dialect.keywords.values())
        self.stream = TokenStream(_LEXER.tokenize(text))

    def parse_program(self) -> Program:
        statements: list[PStmt] = []
        while not self.stream.at_end():
            statements.append(self._statement())
        return Program(tuple(statements))

    @staticmethod
    def _error(token: Token, message: str) -> PseudocodeError:
        return PseudocodeError(f"line {token.line}: {message}")

    # -- statements ------------------------------------------------------

    def _block_until(self, *terminators: str) -> tuple[PStmt, ...]:
        body: list[PStmt] = []
        while self.stream.peek().text not in terminators:
            if self.stream.at_end():
                raise self._error(
                    self.stream.peek(),
                    f"unexpected end of pseudocode, expected one of {terminators}",
                )
            body.append(self._statement())
        return tuple(body)

    def _braced_block(self) -> tuple[PStmt, ...]:
        self.stream.expect("{")
        body = self._block_until("}")
        self.stream.expect("}")
        return body

    def _statement(self) -> PStmt:
        text = self.stream.peek().text
        if text == self.kw["for"]:
            return self._for_statement()
        if text == self.kw["if"]:
            return self._if_statement()
        if text == self.kw.get("define"):
            return self._define_statement()
        return self._assignment()

    def _for_statement(self) -> PFor:
        stream, kw = self.stream, self.kw
        stream.expect(kw["for"])
        if self.dialect.c_style:
            stream.expect("(")
        var = stream.expect_kind("ident").text
        stream.expect(self.dialect.assign)
        start = self._expression()
        if self.dialect.c_style:
            stream.expect(";")
            self._expect_loop_var(var, "condition tests")
            stream.expect("<")
            bound = self._expression()
            stream.expect(";")
            self._expect_loop_var(var, "step increments")
            stream.expect("++")
            stream.expect(")")
            # C loops are exclusive at the top; PFor ends inclusively.
            inclusive = PBin("-", bound, PInt(1))
            return PFor(var, start, inclusive, self._braced_block())
        stream.expect(kw["to"])
        end = self._expression()
        body = self._block_until(kw["endfor"])
        stream.expect(kw["endfor"])
        return PFor(var, start, end, body)

    def _expect_loop_var(self, var: str, clause: str) -> None:
        token = self.stream.expect_kind("ident")
        if token.text != var:
            raise self._error(token, f"for {clause} {token.text!r}, not {var!r}")

    def _if_statement(self) -> PIf:
        stream, kw = self.stream, self.kw
        stream.expect(kw["if"])
        else_body: tuple[PStmt, ...] = ()
        if self.dialect.c_style:
            stream.expect("(")
            cond = self._expression()
            stream.expect(")")
            then_body = self._braced_block()
            if stream.accept(kw["else"]):
                else_body = self._braced_block()
            return PIf(cond, then_body, else_body)
        cond = self._expression()
        stream.expect(kw["then"])
        then_body = self._block_until(kw["else"], kw["endif"])
        if stream.accept(kw["else"]):
            else_body = self._block_until(kw["endif"])
        stream.expect(kw["endif"])
        return PIf(cond, then_body, else_body)

    def _define_statement(self) -> PDefine:
        stream, kw = self.stream, self.kw
        stream.expect(kw["define"])
        name = stream.expect_kind("ident").text
        stream.expect("(")
        params = self._list_to_paren(lambda: stream.expect_kind("ident").text)
        body = self._block_until(kw["return"])
        stream.expect(kw["return"])
        result = self._expression()
        stream.expect(kw["enddef"])
        return PDefine(name, params, body, result)

    def _list_to_paren(self, item: Callable[[], object]) -> tuple:
        """Comma-separated ``item()``s up to and including the closing ``)``."""
        items = []
        if not self.stream.accept(")"):
            items.append(item())
            while self.stream.accept(","):
                items.append(item())
            self.stream.expect(")")
        return tuple(items)

    def _assignment(self) -> PAssign:
        first = self.stream.peek()
        target = self._postfix()
        if not isinstance(target, (PVar, PElem, PSlice)):
            raise self._error(
                first, "assignment target must be a name, element or slice"
            )
        self.stream.expect(self.dialect.assign)
        value = self._expression()
        if self.dialect.c_style:
            self.stream.expect(";")
        return PAssign(target, value)

    # -- expressions (precedence climbing) --------------------------------

    def _expression(self) -> PExpr:
        cond = self._comparison()
        if self.stream.accept("?"):
            then_expr = self._expression()
            self.stream.expect(":")
            else_expr = self._expression()
            return PCond(cond, then_expr, else_expr)
        return cond

    def _comparison(self) -> PExpr:
        left = self._binary()
        token = self.stream.peek().text
        if token in _CMP_TOKENS:
            self.stream.next()
            return PBin(token, left, self._binary())
        return left

    def _binary(self, min_precedence: int = 1) -> PExpr:
        expr = self._unary()
        while True:
            op = self.stream.peek().text
            precedence = _BINARY_PRECEDENCE.get(op, 0)
            if precedence < min_precedence:
                return expr
            self.stream.next()
            expr = PBin(op, expr, self._binary(precedence + 1))

    def _unary(self) -> PExpr:
        if self.stream.peek().text in ("-", "~"):
            op = self.stream.next().text
            return PUn(op, self._unary())
        return self._postfix()

    def _postfix(self) -> PExpr:
        expr = self._primary()
        while self.stream.peek().text == "[":
            bracket = self.stream.next()
            if not isinstance(expr, PVar):
                raise self._error(bracket, "only names can be sliced or indexed")
            base, dot, suffix = expr.name.rpartition(".")
            if dot and self.dialect.elem_suffixes:
                width = self.dialect.elem_suffixes.get(suffix)
                if width is None:
                    raise self._error(bracket, f"unknown element suffix .{suffix}")
                expr = PElem(base, width, self._expression())
            else:
                high = self._expression()
                self.stream.expect(":")
                expr = PSlice(expr.name, high, self._expression())
            self.stream.expect("]")
        return expr

    def _elem_access(self) -> PExpr:
        """``Elem[reg, index, width]`` after the accessor keyword.

        A symbolic width desugars to ``reg[(index+1)*width - 1 :
        index*width]``, so it survives as an index expression until
        lowering binds the machine parameters.
        """
        self.stream.expect("[")
        name = self.stream.expect_kind("ident").text
        self.stream.expect(",")
        index = self._expression()
        self.stream.expect(",")
        if not self.dialect.symbolic_elem_width:
            literal = int(self.stream.expect_kind("int").text)
            self.stream.expect("]")
            return PElem(name, literal, index)
        width = self._expression()
        self.stream.expect("]")
        low = PBin("*", index, width)
        high = PBin("-", PBin("*", PBin("+", index, PInt(1)), width), PInt(1))
        return PSlice(name, high, low)

    def _primary(self) -> PExpr:
        token = self.stream.next()
        if token.kind == "int":
            return PInt(int(token.text))
        if token.kind == "ident":
            if token.text == self.kw.get("elem"):
                return self._elem_access()
            if token.text in self.reserved:
                raise self._error(token, f"unexpected keyword {token.text!r}")
            if self.stream.accept("("):
                return PCall(token.text, self._list_to_paren(self._expression))
            return PVar(token.text)
        if token.text == "(":
            expr = self._expression()
            self.stream.expect(")")
            return expr
        raise self._error(token, f"unexpected token {token.text!r}")


def parse_pseudocode(dialect: Dialect, text: str) -> Program:
    """Parse one dialect's text into the shared pseudocode AST."""
    return Parser(dialect, text).parse_program()


# ----------------------------------------------------------------------
# Builtins: the dialect maps its function names onto these constructors
# ----------------------------------------------------------------------


def _bv_width(expr: BvExpr, widths: dict[str, int]) -> int:
    """Width of a lowered expression (inputs have concrete widths here)."""
    from repro.hydride_ir.interp import compute_width

    return compute_width(expr, {}, widths)


@dataclass
class Builtin:
    """A pseudocode function: arity and a constructor over lowered args.

    ``constructor(args, widths)`` receives lowered arguments — each either
    a ``BvExpr`` or an ``int`` — and returns the lowered result.
    """

    arity: int
    constructor: object  # Callable[[list, dict[str, int]], BvExpr | int]


def _need_bv(value, what: str) -> BvExpr:
    if isinstance(value, int):
        raise PseudocodeError(f"{what} expects a bitvector, got integer {value}")
    return value


def _need_int(value, what: str) -> int:
    if not isinstance(value, int):
        raise PseudocodeError(f"{what} expects an integer literal argument")
    return value


def make_cast_builtin(op: str) -> Builtin:
    def build(args, widths):
        width = _need_int(args[1], op)
        operand = args[0]
        # Integer literals coerce: UExt(1, 17) is the constant 1 at 17 bits.
        if isinstance(operand, int):
            return BvConst(IConst(operand), IConst(width))
        return BvCast(op, operand, IConst(width))

    return Builtin(2, build)


def make_binop_builtin(op: str) -> Builtin:
    def build(args, widths):
        return BvBinOp(op, _need_bv(args[0], op), _need_bv(args[1], op))

    return Builtin(2, build)


def make_unop_builtin(op: str) -> Builtin:
    def build(args, widths):
        return BvUnOp(op, _need_bv(args[0], op))

    return Builtin(1, build)


# The semantic core every dialect draws from; dialects rename these.
CORE_BUILTINS: dict[str, Builtin] = {
    "sign_extend": make_cast_builtin("sext"),
    "zero_extend": make_cast_builtin("zext"),
    "truncate": make_cast_builtin("trunc"),
    "saturate_signed": make_cast_builtin("saturate_to_signed"),
    "saturate_unsigned": make_cast_builtin("saturate_to_unsigned"),
    "min_signed": make_binop_builtin("bvsmin"),
    "max_signed": make_binop_builtin("bvsmax"),
    "min_unsigned": make_binop_builtin("bvumin"),
    "max_unsigned": make_binop_builtin("bvumax"),
    "abs": make_unop_builtin("bvabs"),
    "avg_unsigned_round": make_binop_builtin("bvuavg_round"),
    "avg_signed_round": make_binop_builtin("bvsavg_round"),
    "avg_unsigned": make_binop_builtin("bvuavg"),
    "avg_signed": make_binop_builtin("bvsavg"),
    "sat_add_signed": make_binop_builtin("bvsaddsat"),
    "sat_add_unsigned": make_binop_builtin("bvuaddsat"),
    "sat_sub_signed": make_binop_builtin("bvssubsat"),
    "sat_sub_unsigned": make_binop_builtin("bvusubsat"),
    "rotate_right": make_binop_builtin("bvrotr"),
    "rotate_left": make_binop_builtin("bvrotl"),
    "popcount": make_unop_builtin("popcount"),
}

_WIDTH_SUFFIXED = re.compile(r"(\D+)(\d+)")


@lru_cache(maxsize=1024)
def dialect_builtin(dialect: Dialect, name: str) -> Builtin | None:
    """The one builtin lookup: a named spelling or a width-suffixed cast."""
    key = dialect.builtins.get(name)
    if key is not None:
        return CORE_BUILTINS[key]
    match = _WIDTH_SUFFIXED.fullmatch(name)
    if match is None or match[1] not in dialect.cast_prefixes:
        return None
    cast = make_cast_builtin(dialect.cast_prefixes[match[1]]).constructor
    width = int(match[2])
    return Builtin(1, lambda args, widths: cast([args[0], width], widths))


# ----------------------------------------------------------------------
# Lowering: loops as loops where the pseudocode allows, unrolled otherwise
# ----------------------------------------------------------------------

# Map from operator text to Hydride binop/cmp names.  The paper notes
# vendors conflate logical and arithmetic right shift; every dialect here
# spells the split out: ``>>`` is logical, ``>>>`` arithmetic.
DEFAULT_BIN_OPS = {
    "+": "bvadd",
    "-": "bvsub",
    "*": "bvmul",
    "&": "bvand",
    "|": "bvor",
    "^": "bvxor",
    "<<": "bvshl",
    ">>": "bvlshr",
    ">>>": "bvashr",
}

DEFAULT_CMP_OPS = {
    "==": "bveq",
    "!=": "bvne",
    "<s": "bvslt",
    ">s": "bvsgt",
    "<=s": "bvsle",
    ">=s": "bvsge",
    "<u": "bvult",
    ">u": "bvugt",
    "<=u": "bvule",
    ">=u": "bvuge",
}

_INT_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}


@dataclass(frozen=True)
class _Affine(IndexExpr):
    """An integer affine in the iteration counters of the loop nest being
    lowered as loops: ``const + sum(coeffs[d] * counter_d)``.

    It stands in for a loop-dependent integer — a slice offset, an index
    temporary — while the nest's body is lowered once, and is replaced by
    a real index expression when the nest is assembled
    (:meth:`LoweringContext.lower_nest`).  At least one coefficient is
    non-zero: a loop-invariant value is a plain ``int``.
    """

    coeffs: tuple[int, ...]
    const: int

    def span(self, counts: tuple[int, ...]) -> tuple[int, int]:
        """The least and greatest value over every iteration."""
        low = high = self.const
        for coeff, count in zip(self.coeffs, counts):
            reach = coeff * (count - 1)
            low += min(0, reach)
            high += max(0, reach)
        return low, high


def _affine(coeffs: tuple[int, ...], const: int) -> "_Affine | int":
    return _Affine(coeffs, const) if any(coeffs) else const


def _affine_op(op: str, left, right) -> "_Affine | int":
    """``left op right`` over ``int``s and :class:`_Affine`s: sums,
    differences and scaling by an ``int`` stay affine, nothing else."""
    if not isinstance(left, (int, _Affine)) or not isinstance(right, (int, _Affine)):
        raise PseudocodeError(
            f"operator {op!r} mixes a bitvector with a loop-dependent integer"
        )
    if op == "*" and isinstance(left, int):
        left, right = right, left
    a = left if isinstance(left, _Affine) else _Affine((), left)
    if op == "*" and isinstance(right, int):
        return _affine(tuple(c * right for c in a.coeffs), a.const * right)
    if op not in ("+", "-"):
        raise PseudocodeError(f"loop-dependent operator {op!r} is not affine")
    sign = 1 if op == "+" else -1
    b = right if isinstance(right, _Affine) else _Affine((), right)
    return _affine(
        tuple(x + sign * y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)),
        a.const + sign * b.const,
    )


def _need_static(value, what: str):
    if isinstance(value, _Affine):
        raise PseudocodeError(f"{what} depends on a loop variable")
    return value


@dataclass
class _SliceAssign:
    low: "int | _Affine"
    width: int
    value: BvExpr


class LoweringContext:
    """Evaluates a pseudocode :class:`Program` into slice assignments."""

    def __init__(
        self,
        input_widths: dict[str, int],
        output_name: str,
        output_width: int,
        builtins: Callable[[str], Builtin | None],
    ) -> None:
        self.input_widths = dict(input_widths)
        self.output_name = output_name
        self.output_width = output_width
        self.builtins = builtins
        self.int_env: dict[str, int] = {}
        self.bv_temps: dict[str, BvExpr] = {}
        self.defines: dict[str, PDefine] = {}
        self.assigns: list[_SliceAssign] = []
        # Trip counts of the nest being lowered as loops (lower_nest).
        self.counts: tuple[int, ...] = ()

    # -- expression lowering -------------------------------------------

    def width_of(self, expr: BvExpr) -> int:
        return _bv_width(expr, self.input_widths)

    def eval_expr(self, expr: PExpr):
        """Lower an expression to ``int`` (index sort) or ``BvExpr``."""
        if isinstance(expr, PInt):
            return expr.value
        if isinstance(expr, PVar):
            if expr.name in self.int_env:
                return self.int_env[expr.name]
            if expr.name in self.bv_temps:
                return self.bv_temps[expr.name]
            if expr.name in self.input_widths:
                return BvVar(expr.name)
            raise PseudocodeError(f"unknown name {expr.name!r}")
        if isinstance(expr, PSlice):
            return self._eval_slice(expr)
        if isinstance(expr, PElem):
            low = _affine_op("*", self._eval_index(expr.index), expr.elem_width)
            return self._slice_of(expr.base, low, expr.elem_width)
        if isinstance(expr, PBin):
            return self._eval_bin(expr)
        if isinstance(expr, PUn):
            operand = self.eval_expr(expr.operand)
            if isinstance(operand, _Affine) and expr.op == "-":
                return _affine_op("*", operand, -1)
            if isinstance(operand, int):
                if expr.op == "-":
                    return -operand
                raise PseudocodeError(f"integer unary {expr.op!r} unsupported")
            if expr.op == "~":
                return BvUnOp("bvnot", operand)
            if expr.op == "-":
                return BvUnOp("bvneg", operand)
            raise PseudocodeError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, PCall):
            return self._eval_call(expr)
        if isinstance(expr, PCond):
            cond = _need_static(self.eval_expr(expr.cond), "condition")
            if isinstance(cond, int):
                return self.eval_expr(expr.then_expr if cond else expr.else_expr)
            then_value = _need_static(self.eval_expr(expr.then_expr), "ternary")
            else_value = _need_static(self.eval_expr(expr.else_expr), "ternary")
            # ``cond ? 1 : 0`` materialises the predicate as a bit.
            if (
                isinstance(then_value, int)
                and isinstance(else_value, int)
                and 0 <= then_value <= 1
                and 0 <= else_value <= 1
            ):
                then_value = BvConst(IConst(then_value), IConst(1))
                else_value = BvConst(IConst(else_value), IConst(1))
            # Integer literals coerce to the other branch's width.
            if isinstance(then_value, int) and not isinstance(else_value, int):
                then_value = BvConst(
                    IConst(then_value), IConst(self.width_of(else_value))
                )
            elif isinstance(else_value, int) and not isinstance(then_value, int):
                else_value = BvConst(
                    IConst(else_value), IConst(self.width_of(then_value))
                )
            return BvIte(
                cond,
                _need_bv(then_value, "ternary"),
                _need_bv(else_value, "ternary"),
            )
        raise PseudocodeError(f"unknown expression node {type(expr).__name__}")

    def _eval_int(self, expr: PExpr) -> int:
        value = self.eval_expr(expr)
        if not isinstance(value, int):
            raise PseudocodeError("expected a static integer expression")
        return value

    def _eval_index(self, expr: PExpr) -> "int | _Affine":
        """A slice offset or element index: static, or affine in the
        counters of the nest being lowered as loops."""
        value = self.eval_expr(expr)
        if not isinstance(value, (int, _Affine)):
            raise PseudocodeError("expected a static integer expression")
        return value

    def _span(self, low: "int | _Affine") -> tuple[int, int]:
        return low.span(self.counts) if isinstance(low, _Affine) else (low, low)

    def _slice_of(self, base: str, low: "int | _Affine", width: int) -> BvExpr:
        if base in self.bv_temps:
            source: BvExpr = self.bv_temps[base]
            total = self.width_of(source)
        elif base in self.input_widths:
            source = BvVar(base)
            total = self.input_widths[base]
        else:
            raise PseudocodeError(f"unknown register {base!r}")
        least, greatest = self._span(low)
        if least < 0 or greatest + width > total:
            raise PseudocodeError(
                f"slice [{least}, {greatest + width}) out of range for {base!r} "
                f"of width {total}"
            )
        if isinstance(low, _Affine):
            return BvExtract(source, low, IConst(width))
        if low == 0 and width == total:
            return source
        return BvExtract(source, IConst(low), IConst(width))

    def _slice_width(self, high: PExpr, low: PExpr) -> tuple["int | _Affine", int]:
        """``(low, width)`` of ``[high:low]``; the width must be static."""
        high_value = self._eval_index(high)
        low_value = self._eval_index(low)
        span = _need_static(_affine_op("-", high_value, low_value), "slice width")
        if span < 0:
            raise PseudocodeError(
                f"slice [{high_value}:{low_value}] has negative width"
            )
        return low_value, span + 1

    def _eval_slice(self, expr: PSlice) -> BvExpr:
        return self._slice_of(expr.base, *self._slice_width(expr.high, expr.low))

    def _eval_bin(self, expr: PBin):
        left = self.eval_expr(expr.left)
        right = self.eval_expr(expr.right)
        if isinstance(left, _Affine) or isinstance(right, _Affine):
            return _affine_op(expr.op, left, right)
        if isinstance(left, int) and isinstance(right, int):
            fn = _INT_BIN.get(expr.op)
            if fn is None:
                raise PseudocodeError(f"integer operator {expr.op!r} unsupported")
            try:
                return fn(left, right)
            except (ZeroDivisionError, ValueError) as error:
                # Division/modulo by zero, negative shift count.
                raise PseudocodeError(
                    f"integer operator {expr.op!r} undefined for operands "
                    f"{left} and {right}: {error}"
                ) from None
        # Integer literals mixed with bitvectors coerce to same-width consts.
        if isinstance(left, int):
            left = BvConst(IConst(left), IConst(self.width_of(right)))
        left_bv = _need_bv(left, f"operator {expr.op}")
        if isinstance(right, int):
            right = BvConst(IConst(right), IConst(self.width_of(left_bv)))
        if expr.op in DEFAULT_CMP_OPS:
            return BvCmp(DEFAULT_CMP_OPS[expr.op], left_bv, right)
        op_name = DEFAULT_BIN_OPS.get(expr.op)
        if op_name is None:
            raise PseudocodeError(f"bitvector operator {expr.op!r} unsupported")
        if self.width_of(left_bv) != self.width_of(right):
            raise PseudocodeError(
                f"operator {expr.op!r}: operand widths "
                f"{self.width_of(left_bv)} and {self.width_of(right)} differ"
            )
        return BvBinOp(op_name, left_bv, right)

    def _eval_call(self, expr: PCall):
        define = self.defines.get(expr.name)
        if define is not None:
            return self._inline_define(define, expr)
        builtin = self.builtins(expr.name)
        if builtin is None:
            raise PseudocodeError(f"unknown function {expr.name!r}")
        if len(expr.args) != builtin.arity:
            raise PseudocodeError(
                f"{expr.name} expects {builtin.arity} args, got {len(expr.args)}"
            )
        args = [
            _need_static(self.eval_expr(a), f"argument of {expr.name}")
            for a in expr.args
        ]
        return builtin.constructor(args, self.input_widths)

    def _inline_define(self, define: PDefine, call: PCall):
        """Function inlining: bind args as temps, run body, return result."""
        if len(call.args) != len(define.params):
            raise PseudocodeError(
                f"{define.name} expects {len(define.params)} args, "
                f"got {len(call.args)}"
            )
        saved_int = dict(self.int_env)
        saved_bv = dict(self.bv_temps)
        for param, arg in zip(define.params, call.args):
            value = self.eval_expr(arg)
            if isinstance(value, int):
                self.int_env[param] = value
                self.bv_temps.pop(param, None)
            else:
                self.bv_temps[param] = value
                self.int_env.pop(param, None)
        try:
            for stmt in define.body:
                self.exec_stmt(stmt)
            return self.eval_expr(define.result)
        finally:
            self.int_env = saved_int
            self.bv_temps = saved_bv

    # -- statement execution -------------------------------------------

    def exec_stmt(self, stmt: PStmt) -> None:
        if isinstance(stmt, PDefine):
            self.defines[stmt.name] = stmt
            return
        if isinstance(stmt, PAssign):
            self._exec_assign(stmt)
            return
        if isinstance(stmt, PFor):
            start = self._eval_int(stmt.start)
            end = self._eval_int(stmt.end)
            saved = self.int_env.get(stmt.var)
            for i in range(start, end + 1):
                self.int_env[stmt.var] = i
                for inner in stmt.body:
                    self.exec_stmt(inner)
            if saved is None:
                self.int_env.pop(stmt.var, None)
            else:
                self.int_env[stmt.var] = saved
            return
        if isinstance(stmt, PIf):
            self._exec_if(stmt)
            return
        raise PseudocodeError(f"unknown statement {type(stmt).__name__}")

    def _exec_assign(self, stmt: PAssign) -> None:
        target = stmt.target
        if isinstance(target, PVar):
            value = self.eval_expr(stmt.value)
            if isinstance(value, (int, _Affine)):
                self.int_env[target.name] = value
            else:
                self.bv_temps[target.name] = value
            return
        if isinstance(target, PElem):
            if target.base != self.output_name:
                raise PseudocodeError(
                    f"element assignment to non-output {target.base!r}"
                )
            low = _affine_op("*", self._eval_index(target.index), target.elem_width)
            self._record_assign(low, target.elem_width, stmt.value)
            return
        if isinstance(target, PSlice):
            if target.base != self.output_name:
                raise PseudocodeError(f"slice assignment to non-output {target.base!r}")
            self._record_assign(
                *self._slice_width(target.high, target.low), stmt.value
            )
            return
        raise PseudocodeError(f"bad assignment target {type(target).__name__}")

    def _record_assign(
        self, low: "int | _Affine", width: int, value_expr: PExpr
    ) -> None:
        value = _need_static(self.eval_expr(value_expr), "assigned value")
        if isinstance(value, int):
            value = BvConst(IConst(value), IConst(width))
        least, greatest = self._span(low)
        actual = self.width_of(value)
        if actual != width:
            raise PseudocodeError(
                f"assignment to [{least + width - 1}:{least}] has width {actual}, "
                f"expected {width}"
            )
        if least < 0 or greatest + width > self.output_width:
            raise PseudocodeError(
                f"assignment [{least}, {greatest + width}) outside destination "
                f"of width {self.output_width}"
            )
        self.assigns.append(_SliceAssign(low, width, value))

    def _exec_if(self, stmt: PIf) -> None:
        cond = _need_static(self.eval_expr(stmt.cond), "IF condition")
        if isinstance(cond, int):
            body = stmt.then_body if cond else stmt.else_body
            for inner in body:
                self.exec_stmt(inner)
            return
        # Data-dependent condition (AVX-512 masking): both branches must
        # assign the same destination slices; merge each pair with BvIte.
        if self.width_of(cond) != 1:
            raise PseudocodeError("IF condition must be 1 bit wide")
        then_assigns = self._collect_branch(stmt.then_body)
        else_assigns = self._collect_branch(stmt.else_body)
        then_keys = [(a.low, a.width) for a in then_assigns]
        else_keys = [(a.low, a.width) for a in else_assigns]
        if then_keys != else_keys:
            raise PseudocodeError(
                "data-dependent IF branches assign different slices: "
                f"{then_keys} vs {else_keys}"
            )
        for then_part, else_part in zip(then_assigns, else_assigns):
            self.assigns.append(
                _SliceAssign(
                    then_part.low,
                    then_part.width,
                    BvIte(cond, then_part.value, else_part.value),
                )
            )

    def _collect_branch(self, body: tuple[PStmt, ...]) -> list[_SliceAssign]:
        saved = self.assigns
        self.assigns = []
        try:
            for inner in body:
                self.exec_stmt(inner)
            return self.assigns
        finally:
            self.assigns = saved

    # -- the destination's loop nest, lowered as loops ------------------

    def lower_nest(self, nest: tuple[PFor, ...]) -> bool:
        """Lower a nest :func:`_loop_nest` admitted as one ``ForConcat``
        nest covering the destination.

        The body is lowered once, each loop variable bound to its
        iteration counter (an :class:`_Affine`).  The result is the nest
        :func:`repro.hydride_ir.transforms.reroll` recovers from the
        unrolled slices.  Returns False, with the context as it was, when
        the nest runs fewer than two iterations (unrolling makes no
        concatenation), when its slices do not tile the destination in
        iteration order, or when lowering it raises; the caller then
        unrolls it, which reports any error at its iteration.
        """
        int_env, bv_temps = dict(self.int_env), dict(self.bv_temps)
        assigns, self.assigns = self.assigns, []
        try:
            built = self._lower_nest(nest)
        except PseudocodeError:
            built = None
        self.int_env, self.bv_temps, self.assigns = int_env, bv_temps, assigns
        self.counts = ()
        if built is None:
            return False
        self.assigns.append(_SliceAssign(0, self.output_width, built))
        return True

    def _lower_nest(self, nest: tuple[PFor, ...]) -> BvExpr | None:
        counts = [1] * len(nest)
        for depth, loop in enumerate(nest):
            if depth:
                for stmt in nest[depth - 1].body[:-1]:
                    self.exec_stmt(stmt)
            start = self._eval_int(loop.start)
            counts[depth] = self._eval_int(loop.end) - start + 1
            if counts[depth] < 1:
                return None
            self.counts = tuple(counts)
            unit = tuple(int(d == depth) for d in range(len(nest)))
            counter = _affine(unit, start) if counts[depth] > 1 else start
            self.int_env[loop.var] = counter
        for stmt in nest[-1].body:
            self.exec_stmt(stmt)
        dims = [d for d, count in enumerate(counts) if count > 1]
        if len(self.assigns) != 1 or not dims:
            return None
        (assign,) = self.assigns
        # Iteration order must be destination order: the innermost
        # counter steps one slice, each outer one a whole inner loop.
        strides = [0] * len(nest)
        extent = assign.width
        for d in reversed(dims):
            strides[d] = extent
            extent *= counts[d]
        if assign.low != _Affine(tuple(strides), 0) or extent != self.output_width:
            return None
        return _assemble_nest(assign.value, dims, counts)

    # -- result assembly -------------------------------------------------

    def finish(self) -> BvExpr:
        """Assemble the recorded slice assignments into one expression."""
        if not self.assigns:
            raise PseudocodeError("pseudocode never assigns the destination")
        ordered = sorted(self.assigns, key=lambda a: a.low)
        cursor = 0
        parts: list[BvExpr] = []
        for assign in ordered:
            if assign.low != cursor:
                raise PseudocodeError(
                    f"destination gap/overlap at bit {cursor} "
                    f"(next assignment at {assign.low})"
                )
            parts.append(assign.value)
            cursor += assign.width
        if cursor != self.output_width:
            raise PseudocodeError(
                f"assignments cover {cursor} bits of a "
                f"{self.output_width}-bit destination"
            )
        if len(parts) == 1:
            return parts[0]
        return BvConcat(tuple(parts))


def _writes(stmt: PStmt) -> bool:
    """Whether ``stmt`` can assign a destination slice."""
    if isinstance(stmt, PAssign):
        return not isinstance(stmt.target, PVar)
    if isinstance(stmt, PFor):
        return any(map(_writes, stmt.body))
    if isinstance(stmt, PIf):
        return any(map(_writes, stmt.then_body + stmt.else_body))
    return False


def _write_count(body: tuple[PStmt, ...]) -> int | None:
    """Destination slices one pass over ``body`` assigns; None when that
    is not fixed, or the body holds a loop or a definition."""
    total = 0
    for stmt in body:
        if isinstance(stmt, PAssign):
            total += _writes(stmt)
        elif isinstance(stmt, PIf):
            then_count = _write_count(stmt.then_body)
            if then_count is None or then_count != _write_count(stmt.else_body):
                return None
            total += then_count
        else:
            return None
    return total


def _assigned(body: tuple[PStmt, ...]) -> set[str]:
    names: set[str] = set()
    for stmt in body:
        if isinstance(stmt, PAssign) and isinstance(stmt.target, PVar):
            names.add(stmt.target.name)
        elif isinstance(stmt, PIf):
            names |= _assigned(stmt.then_body) | _assigned(stmt.else_body)
        elif isinstance(stmt, PFor):
            names |= {stmt.var} | _assigned(stmt.body)
    return names


def _loop_use(expr: PExpr, tainted: set[str], unset: set[str]) -> bool | None:
    """Whether ``expr`` is an integer varying with the loop (True) or not
    (False).  None when it uses the loop other than affinely or outside
    slice offsets — in a condition, a call, or as a value — or reads a
    name in ``unset``: one the loop assigns but this iteration has not
    yet, so the read would see the previous iteration's value."""
    if isinstance(expr, PInt):
        return False
    if isinstance(expr, PVar):
        return None if expr.name in unset else expr.name in tainted
    if isinstance(expr, (PSlice, PElem)):
        offsets = (expr.high, expr.low) if isinstance(expr, PSlice) else (expr.index,)
        if expr.base in unset or any(
            _loop_use(offset, tainted, unset) is None for offset in offsets
        ):
            return None
        return False
    if isinstance(expr, PBin):
        left = _loop_use(expr.left, tainted, unset)
        right = _loop_use(expr.right, tainted, unset)
        if left is None or right is None:
            return None
        if not (left or right):
            return False
        if expr.op in ("+", "-") or (expr.op == "*" and not (left and right)):
            return True
        return None
    if isinstance(expr, PUn):
        use = _loop_use(expr.operand, tainted, unset)
        return None if use and expr.op != "-" else use
    if isinstance(expr, PCall):
        parts = expr.args
    elif isinstance(expr, PCond):
        parts = (expr.cond, expr.then_expr, expr.else_expr)
    else:
        return None
    if all(_loop_use(part, tainted, unset) is False for part in parts):
        return False
    return None


def _affine_body(
    body: tuple[PStmt, ...], tainted: set[str], bound: set[str], loop_names: set[str]
) -> bool:
    """Walk one iteration's statements in order.  ``tainted`` gathers the
    loop-dependent integer temporaries, ``bound`` the ``loop_names``
    (names the loop assigns) already set in this iteration."""
    for stmt in body:
        unset = loop_names - bound
        if isinstance(stmt, PIf):
            if _loop_use(stmt.cond, tainted, unset) is not False:
                return False
            branches = stmt.then_body + stmt.else_body
            if not _affine_body(branches, tainted, bound, loop_names):
                return False
            continue
        assert isinstance(stmt, PAssign)
        target, use = stmt.target, _loop_use(stmt.value, tainted, unset)
        if use is None:
            return False
        if isinstance(target, PVar):
            (tainted.add if use else tainted.discard)(target.name)
            bound.add(target.name)
        elif use or _loop_use(target, tainted, unset) is None:
            return False
    return True


def _loop_nest(program: Program) -> tuple[PFor, ...] | None:
    """The destination's loop nest, when it lowers as loops.

    Decided on the pseudocode alone, before anything is lowered.  The
    nest must be the program's last statement and its only destination
    writer, in a program without helper definitions; at most two loops
    deep (the inner loop ends the outer body, after nothing but
    temporaries); and assign one destination slice per iteration.  No
    value may be carried from one iteration to the next,
    and the loop variables — with the temporaries computed from them —
    may appear only in affine integer arithmetic that ends in slice
    offsets: a condition on a loop variable, a non-affine index or a
    loop variable used as a value leaves the program to be unrolled.
    """
    if not program.statements:
        return None
    *prelude, last = program.statements
    if not isinstance(last, PFor) or any(
        isinstance(stmt, PDefine) or _writes(stmt) for stmt in prelude
    ):
        return None
    nest = [last]
    while any(isinstance(stmt, PFor) for stmt in nest[-1].body):
        *temps, inner = nest[-1].body
        if len(nest) == 2 or not isinstance(inner, PFor) or not all(
            isinstance(stmt, PAssign) and isinstance(stmt.target, PVar)
            for stmt in temps
        ):
            return None
        nest.append(inner)
    if _write_count(nest[-1].body) != 1:
        return None
    loop_names = _assigned((last,))
    tainted: set[str] = set()
    bound: set[str] = set()
    for depth, loop in enumerate(nest):
        for bound_expr in (loop.start, loop.end):
            if _loop_use(bound_expr, tainted, loop_names - bound) is not False:
                return None
        tainted.add(loop.var)
        bound.add(loop.var)
        body = loop.body if depth == len(nest) - 1 else loop.body[:-1]
        if not _affine_body(body, tainted, bound, loop_names):
            return None
    return tuple(nest)


def _stride_form(var: str, stride: int, base: IndexExpr) -> IndexExpr:
    """Reroll's shape for an offset that steps with a loop:
    ``(var * stride) + base``; ``base`` alone when it does not step."""
    if not stride:
        return base
    return IBin("+", IBin("*", IVar(var), IConst(stride)), base)


def _assemble_nest(value: BvExpr, dims: list[int], counts: list[int]) -> BvExpr:
    """Replace ``value``'s :class:`_Affine` offsets by index expressions
    over fresh loop variables and wrap it in the loops.

    Two loops whose every offset steps by the inner stride times the
    inner trip count are one loop over the flattened iteration space —
    reroll finds the single loop first; otherwise the nest stays nested.
    """
    offsets = [
        index for node in value.walk() for index in node.index_exprs()
        if isinstance(index, _Affine)
    ]
    trips = {d: counts[d] for d in dims}
    if len(dims) == 2:
        outer, inner = dims
        if all(a.coeffs[outer] == a.coeffs[inner] * counts[inner] for a in offsets):
            dims, trips = [inner], {inner: counts[outer] * counts[inner]}
    names = {d: f"_i{d}" for d in dims}

    def index(expr: IndexExpr) -> IndexExpr:
        if not isinstance(expr, _Affine):
            return expr
        form: IndexExpr = IConst(expr.const)
        for d in reversed(dims):
            form = _stride_form(names[d], expr.coeffs[d], form)
        return form

    body = rewrite_bottom_up(value, lambda node: with_index_exprs(node, index))
    for d in reversed(dims):
        body = ForConcat(names[d], IConst(trips[d]), body)
    return body


def lower_program(
    program: Program,
    input_widths: dict[str, int],
    output_name: str,
    output_width: int,
    builtins: Callable[[str], Builtin | None],
    params: Mapping[str, int] | None = None,
) -> BvExpr:
    """Lower a parsed program: its destination loop nest as loops when
    :func:`_loop_nest` admits it, everything else by unrolling.

    ``params`` seeds the integer environment with a dialect's symbolic
    machine parameters; the pseudocode text itself stays agnostic of them
    and can be re-lowered at any binding.
    """
    return _lower(
        program, _loop_nest(program),
        LoweringContext(input_widths, output_name, output_width, builtins), params,
    )


def unroll_program(
    program: Program,
    input_widths: dict[str, int],
    output_name: str,
    output_width: int,
    builtins: Callable[[str], Builtin | None],
    params: Mapping[str, int] | None = None,
) -> BvExpr:
    """Lower a parsed program by unrolling every loop.  Rerolling its
    result gives the canonical form :func:`lower_program` builds directly;
    it is the reference the two are tested against."""
    return _lower(
        program, None,
        LoweringContext(input_widths, output_name, output_width, builtins), params,
    )


def _lower(
    program: Program,
    nest: tuple[PFor, ...] | None,
    context: LoweringContext,
    params: Mapping[str, int] | None,
) -> BvExpr:
    context.int_env.update(params or {})
    statements = program.statements[:-1] if nest else program.statements
    for stmt in statements:
        context.exec_stmt(stmt)
    perf = global_counters()
    if nest is not None:
        if context.lower_nest(nest):
            perf.specs_lowered_direct += 1
            return context.finish()
        context.exec_stmt(nest[0])
    body = context.finish()
    if isinstance(body, BvConcat):
        perf.specs_rerolled += 1
    return body


def _semantics(dialect: Dialect, spec: InstructionSpec, lower) -> SemanticsFunction:
    program = parse_pseudocode(dialect, spec.pseudocode)
    params: dict[str, int] = {}
    for name, attribute in dialect.params.items():
        if attribute not in spec.attributes:
            raise PseudocodeError(f"machine parameter {name} is unbound")
        params[name] = int(spec.attributes[attribute])
    body = lower(
        program,
        {op.name: op.width for op in spec.operands},
        dialect.output,
        spec.output_width,
        partial(dialect_builtin, dialect),
        params,
    )
    inputs = tuple(
        Input(op.name, IConst(op.width), op.is_immediate) for op in spec.operands
    )
    return SemanticsFunction(spec.name, inputs, {}, body, IConst(spec.output_width))


def dialect_semantics(dialect: Dialect, spec: InstructionSpec) -> SemanticsFunction:
    """Parse and lower one instruction spec to a semantics function."""
    return _semantics(dialect, spec, lower_program)


def unrolled_semantics(dialect: Dialect, spec: InstructionSpec) -> SemanticsFunction:
    """:func:`dialect_semantics` through :func:`unroll_program`: the
    unroll-then-reroll reference for the direct loop lowering."""
    return _semantics(dialect, spec, unroll_program)
