"""Symbolic bitvector terms.

Terms form an immutable DAG.  There are three node kinds:

* :class:`Const` — a concrete bitvector literal,
* :class:`Var` — a named symbolic input of known width,
* :class:`App` — an operator applied to argument terms, optionally with
  integer attributes (``params``) for things like extract bounds.

Operator names match the methods of :class:`repro.bitvector.BitVector`
one-for-one, so evaluation is a direct dispatch.

Terms are *hash-consed*: every distinct structure is assigned a stable
integer uid from a process-wide intern table, and the public constructors
(:func:`const`, :func:`var`, :func:`apply_op`) return the canonical
instance for their structure.  Equality and hashing are O(1) through the
uid, and downstream caches (the bit-blaster, evaluators) key on
:func:`term_uid` instead of ``id(term)`` — uids are never reused, so a
cache can never alias two different terms the way recycled ``id`` values
can.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.perf import global_counters as _global_counters


# Operators producing a result of the same width as their (equal-width) args.
BINARY_SAME_WIDTH = frozenset(
    {
        "bvadd",
        "bvsub",
        "bvmul",
        "bvudiv",
        "bvurem",
        "bvsdiv",
        "bvsrem",
        "bvand",
        "bvor",
        "bvxor",
        "bvshl",
        "bvlshr",
        "bvashr",
        "bvrotl",
        "bvrotr",
        "bvsmin",
        "bvsmax",
        "bvumin",
        "bvumax",
        "bvsaddsat",
        "bvuaddsat",
        "bvssubsat",
        "bvusubsat",
        "bvsshlsat",
        "bvuavg",
        "bvsavg",
        "bvuavg_round",
        "bvsavg_round",
    }
)

UNARY_SAME_WIDTH = frozenset({"bvneg", "bvnot", "bvabs", "popcount"})

# Predicates producing a 1-bit result from equal-width args.
COMPARISONS = frozenset(
    {"bveq", "bvne", "bvult", "bvule", "bvugt", "bvuge", "bvslt", "bvsle", "bvsgt", "bvsge"}
)

# Width-changing operators; the new width travels in ``params[0]`` except
# for extract, whose params are ``(high, low)``.
WIDTH_CHANGING = frozenset(
    {"zext", "sext", "trunc", "saturate_to_signed", "saturate_to_unsigned"}
)

ALL_OPS = (
    BINARY_SAME_WIDTH
    | UNARY_SAME_WIDTH
    | COMPARISONS
    | WIDTH_CHANGING
    | {"extract", "concat", "ite"}
)

# Operators the bit-blaster does not support; equivalence queries containing
# them fall back to exhaustive or randomized checking.
NOT_BITBLASTABLE = frozenset({"bvudiv", "bvurem", "bvsdiv", "bvsrem", "popcount"})


@dataclass(frozen=True)
class Term:
    """Base class for symbolic bitvector terms."""

    width: int

    def walk(self):
        """Yield every node in this term DAG exactly once (post-order)."""
        seen: set[int] = set()
        stack: list[tuple[Term, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                yield node
                continue
            stack.append((node, True))
            if isinstance(node, App):
                for arg in node.args:
                    if id(arg) not in seen:
                        stack.append((arg, False))

    def variables(self) -> dict[str, int]:
        """Map of variable name to width for every Var in this term."""
        return {n.name: n.width for n in self.walk() if isinstance(n, Var)}

    def ops_used(self) -> set[str]:
        return {n.op for n in self.walk() if isinstance(n, App)}

    def size(self) -> int:
        """Number of nodes in the DAG."""
        return sum(1 for _ in self.walk())


@dataclass(frozen=True)
class Const(Term):
    value: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))

    def __repr__(self) -> str:
        return f"c{self.width}({self.value:#x})"


@dataclass(frozen=True)
class Var(Term):
    name: str = ""

    def __repr__(self) -> str:
        return f"{self.name}:bv{self.width}"


@dataclass(frozen=True)
class App(Term):
    op: str = ""
    args: tuple[Term, ...] = ()
    params: tuple[int, ...] = field(default=())

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.args] + [str(p) for p in self.params]
        return f"({self.op} {' '.join(parts)}):bv{self.width}"


# ----------------------------------------------------------------------
# Hash-consing
# ----------------------------------------------------------------------

# Structural key -> canonical instance.  The table is never cleared: uids
# are handed out monotonically, so a uid uniquely names one structure for
# the lifetime of the process (the property downstream caches rely on).
_INTERN: dict[tuple, Term] = {}
_UIDS = itertools.count(1)


def _local_key(term: Term) -> tuple:
    """Structural identity of one node in terms of its children's uids."""
    if isinstance(term, Const):
        return (0, term.width, term.value)
    if isinstance(term, Var):
        return (1, term.width, term.name)
    assert isinstance(term, App)
    return (
        2,
        term.width,
        term.op,
        term.params,
        tuple(a.__dict__["_uid"] for a in term.args),
    )


def term_uid(term: Term) -> int:
    """The stable structural uid of ``term`` (computing and caching it,
    bottom-up and iteratively, for any nodes that don't have one yet)."""
    cached = term.__dict__.get("_uid")
    if cached is not None:
        return cached
    perf = _global_counters()
    stack = [term]
    while stack:
        node = stack[-1]
        if "_uid" in node.__dict__:
            stack.pop()
            continue
        if isinstance(node, App):
            pending = [a for a in node.args if "_uid" not in a.__dict__]
            if pending:
                stack.extend(pending)
                continue
        key = _local_key(node)
        canonical = _INTERN.get(key)
        if canonical is None:
            object.__setattr__(node, "_uid", next(_UIDS))
            _INTERN[key] = node
            perf.term_intern_misses += 1
        else:
            object.__setattr__(node, "_uid", canonical.__dict__["_uid"])
            perf.term_intern_hits += 1
        stack.pop()
    return term.__dict__["_uid"]


def intern_term(term: Term) -> Term:
    """The canonical instance for ``term``'s structure."""
    uid = term_uid(term)
    del uid
    return _INTERN[_local_key(term)]


def _term_hash(self: Term) -> int:
    return term_uid(self)


def _term_eq(self: Term, other: object):
    if self is other:
        return True
    if not isinstance(other, Term):
        return NotImplemented
    return term_uid(self) == term_uid(other)


def _term_ne(self: Term, other: object):
    result = _term_eq(self, other)
    if result is NotImplemented:
        return result
    return not result


# Replace the dataclass-generated structural (recursive) equality and hash
# with O(1) uid comparisons — consistent because one uid names exactly one
# structure for the process lifetime.
for _cls in (Const, Var, App):
    _cls.__hash__ = _term_hash  # type: ignore[assignment]
    _cls.__eq__ = _term_eq  # type: ignore[assignment]
    _cls.__ne__ = _term_ne  # type: ignore[assignment]


def const(value: int, width: int) -> Const:
    return intern_term(Const(width, value))


def var(name: str, width: int) -> Var:
    return intern_term(Var(width, name))


def _require_same_width(op: str, a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"{op}: width mismatch {a} vs {b}")


def result_width(op: str, arg_widths: list[int], params: tuple[int, ...] = ()) -> int:
    """The width of ``op`` applied to arguments of ``arg_widths``.

    Every width-inference and legality rule of the term language lives
    here; raises ValueError where the application is ill-formed."""
    if op in BINARY_SAME_WIDTH or op in COMPARISONS:
        first, second = arg_widths
        _require_same_width(op, first, second)
        return 1 if op in COMPARISONS else first
    if op in UNARY_SAME_WIDTH:
        (operand,) = arg_widths
        return operand
    if op in WIDTH_CHANGING:
        (_operand,) = arg_widths
        (new_width,) = params
        return new_width
    if op == "extract":
        (operand,) = arg_widths
        high, low = params
        if not 0 <= low <= high < operand:
            raise ValueError(f"extract [{high}:{low}] out of range for width {operand}")
        return high - low + 1
    if op == "concat":
        high_part, low_part = arg_widths
        return high_part + low_part
    if op == "ite":
        cond, then_width, else_width = arg_widths
        if cond != 1:
            raise ValueError("ite condition must be 1 bit wide")
        _require_same_width(op, then_width, else_width)
        return then_width
    raise ValueError(f"unknown operator {op!r}")


def apply_op(op: str, args: list[Term], params: tuple[int, ...] = ()) -> App:
    """Construct an :class:`App` with width inference and legality checks
    (:func:`result_width`).

    The returned node is interned: structurally identical applications are
    the same object, so downstream uid-keyed caches share their work.
    When every argument is interned already, the node is found by one
    lookup of its key and an :class:`App` is constructed only on a miss;
    otherwise :func:`term_uid` interns the arguments first."""
    width = result_width(op, [a.width for a in args], params)
    try:
        uids = tuple([a.__dict__["_uid"] for a in args])
    except KeyError:
        return intern_term(App(width, op, tuple(args), params))
    key = (2, width, op, params, uids)
    perf = _global_counters()
    canonical = _INTERN.get(key)
    if canonical is not None:
        perf.term_intern_hits += 1
        return canonical
    node = App(width, op, tuple(args), params)
    object.__setattr__(node, "_uid", next(_UIDS))
    _INTERN[key] = node
    perf.term_intern_misses += 1
    return node


# ----------------------------------------------------------------------
# Convenience builders (make test and semantics code readable)
# ----------------------------------------------------------------------


def bvadd(a: Term, b: Term) -> App:
    return apply_op("bvadd", [a, b])


def bvsub(a: Term, b: Term) -> App:
    return apply_op("bvsub", [a, b])


def bvmul(a: Term, b: Term) -> App:
    return apply_op("bvmul", [a, b])


def bvand(a: Term, b: Term) -> App:
    return apply_op("bvand", [a, b])


def bvor(a: Term, b: Term) -> App:
    return apply_op("bvor", [a, b])


def bvxor(a: Term, b: Term) -> App:
    return apply_op("bvxor", [a, b])


def bvnot(a: Term) -> App:
    return apply_op("bvnot", [a])


def bvneg(a: Term) -> App:
    return apply_op("bvneg", [a])


def extract(a: Term, high: int, low: int) -> App:
    return apply_op("extract", [a], (high, low))


def concat(high_part: Term, low_part: Term) -> App:
    return apply_op("concat", [high_part, low_part])


def zext(a: Term, width: int) -> App:
    return apply_op("zext", [a], (width,))


def sext(a: Term, width: int) -> App:
    return apply_op("sext", [a], (width,))


def trunc(a: Term, width: int) -> App:
    return apply_op("trunc", [a], (width,))


def ite(cond: Term, then_term: Term, else_term: Term) -> App:
    return apply_op("ite", [cond, then_term, else_term])


def bveq(a: Term, b: Term) -> App:
    return apply_op("bveq", [a, b])
