"""Shared machinery for the vendor pseudocode dialects.

Each ISA (x86, HVX, ARM, RVV) writes its manual in its own surface
syntax — keywords, assignment token, block form, element accessors and
builtin names differ, as the vendors' manuals do — but the differences
are *data*: a :class:`Dialect` table per ISA drives the one
:class:`Parser` defined here.  Every dialect parses into the small
statement/expression AST below, which is then *lowered* to Hydride IR by
symbolic unrolling:

* ``FOR`` loops run with concrete bounds (vendor pseudocode always has
  literal trip counts), producing one slice assignment per element;
* helper ``DEFINE`` functions are inlined at call sites;
* data-dependent ``IF`` (AVX-512 masking) merges branch assignments into
  ``BvIte`` nodes;
* the resulting slice assignments must tile the destination register
  exactly and become a ``BvConcat`` — which loop rerolling in
  :mod:`repro.hydride_ir.transforms` subsequently re-rolls.

This mirrors the paper's flow where parsed semantics are canonicalised by
"function inlining, loop rerolling, etc." before similarity checking.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial

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
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IConst
from repro.isa.spec import InstructionSpec


class PseudocodeError(Exception):
    """Raised on malformed pseudocode or an ill-typed lowering."""


# ----------------------------------------------------------------------
# Lexer toolkit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
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

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

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
# Lowering: unrolling evaluator
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


@dataclass
class _SliceAssign:
    low: int
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
            low = self._eval_int(expr.index) * expr.elem_width
            return self._slice_of(expr.base, low, expr.elem_width)
        if isinstance(expr, PBin):
            return self._eval_bin(expr)
        if isinstance(expr, PUn):
            operand = self.eval_expr(expr.operand)
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
            cond = self.eval_expr(expr.cond)
            if isinstance(cond, int):
                return self.eval_expr(expr.then_expr if cond else expr.else_expr)
            then_value = self.eval_expr(expr.then_expr)
            else_value = self.eval_expr(expr.else_expr)
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

    def _slice_of(self, base: str, low: int, width: int) -> BvExpr:
        if base in self.bv_temps:
            source: BvExpr = self.bv_temps[base]
            total = self.width_of(source)
        elif base in self.input_widths:
            source = BvVar(base)
            total = self.input_widths[base]
        else:
            raise PseudocodeError(f"unknown register {base!r}")
        if low < 0 or low + width > total:
            raise PseudocodeError(
                f"slice [{low}, {low + width}) out of range for {base!r} "
                f"of width {total}"
            )
        if low == 0 and width == total:
            return source
        return BvExtract(source, IConst(low), IConst(width))

    def _eval_slice(self, expr: PSlice) -> BvExpr:
        high = self._eval_int(expr.high)
        low = self._eval_int(expr.low)
        if high < low:
            raise PseudocodeError(f"slice [{high}:{low}] has negative width")
        return self._slice_of(expr.base, low, high - low + 1)

    def _eval_bin(self, expr: PBin):
        left = self.eval_expr(expr.left)
        right = self.eval_expr(expr.right)
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
        args = [self.eval_expr(a) for a in expr.args]
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
            if isinstance(value, int):
                self.int_env[target.name] = value
            else:
                self.bv_temps[target.name] = value
            return
        if isinstance(target, PElem):
            if target.base != self.output_name:
                raise PseudocodeError(
                    f"element assignment to non-output {target.base!r}"
                )
            low = self._eval_int(target.index) * target.elem_width
            self._record_assign(low, target.elem_width, stmt.value)
            return
        if isinstance(target, PSlice):
            if target.base != self.output_name:
                raise PseudocodeError(f"slice assignment to non-output {target.base!r}")
            high = self._eval_int(target.high)
            low = self._eval_int(target.low)
            self._record_assign(low, high - low + 1, stmt.value)
            return
        raise PseudocodeError(f"bad assignment target {type(target).__name__}")

    def _record_assign(self, low: int, width: int, value_expr: PExpr) -> None:
        value = self.eval_expr(value_expr)
        if isinstance(value, int):
            value = BvConst(IConst(value), IConst(width))
        actual = self.width_of(value)
        if actual != width:
            raise PseudocodeError(
                f"assignment to [{low + width - 1}:{low}] has width {actual}, "
                f"expected {width}"
            )
        if low < 0 or low + width > self.output_width:
            raise PseudocodeError(
                f"assignment [{low}, {low + width}) outside destination "
                f"of width {self.output_width}"
            )
        self.assigns.append(_SliceAssign(low, width, value))

    def _exec_if(self, stmt: PIf) -> None:
        cond = self.eval_expr(stmt.cond)
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


def lower_program(
    program: Program,
    input_widths: dict[str, int],
    output_name: str,
    output_width: int,
    builtins: Callable[[str], Builtin | None],
    params: Mapping[str, int] | None = None,
) -> BvExpr:
    """Run the unrolling evaluator over a parsed program.

    ``params`` seeds the integer environment with a dialect's symbolic
    machine parameters; the pseudocode text itself stays agnostic of them
    and can be re-lowered at any binding.
    """
    context = LoweringContext(input_widths, output_name, output_width, builtins)
    context.int_env.update(params or {})
    for stmt in program.statements:
        context.exec_stmt(stmt)
    return context.finish()


def dialect_semantics(dialect: Dialect, spec: InstructionSpec) -> SemanticsFunction:
    """Parse and lower one instruction spec to a semantics function."""
    program = parse_pseudocode(dialect, spec.pseudocode)
    params: dict[str, int] = {}
    for name, attribute in dialect.params.items():
        if attribute not in spec.attributes:
            raise PseudocodeError(f"machine parameter {name} is unbound")
        params[name] = int(spec.attributes[attribute])
    body = lower_program(
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
