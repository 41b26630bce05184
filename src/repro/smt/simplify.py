"""Term simplification: constant folding, identities, canonical ordering.

The simplifier serves two masters.  For the SAT pipeline it shrinks terms
before bit-blasting.  For the similarity engine it acts as the *structural
fast path*: two instruction semantics that normalise to the identical term
are equivalent without any solver query, which is how the bulk of the
pairwise checks in Algorithm 1 are discharged cheaply.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.smt.eval import evaluate
from repro.smt.terms import App, Const, Term, Var, apply_op

# Commutative operators get their arguments sorted into a canonical order so
# that e.g. ``bvadd(x, y)`` and ``bvadd(y, x)`` normalise identically.
_COMMUTATIVE = frozenset(
    {
        "bvadd",
        "bvmul",
        "bvand",
        "bvor",
        "bvxor",
        "bveq",
        "bvne",
        "bvsmin",
        "bvsmax",
        "bvumin",
        "bvumax",
        "bvsaddsat",
        "bvuaddsat",
        "bvuavg",
        "bvsavg",
        "bvuavg_round",
        "bvsavg_round",
    }
)


class _Scope:
    """What one :func:`simplify` call memoises: each term's sort key (the
    canonical order of commutative arguments), and the flattened leaves
    of each ``concat`` tree an ``extract`` lands in.

    Entries are keyed by ``id`` and hold the term itself, so an id is
    never reused while its entry lives; the scope dies with the call and
    nothing is cached on term nodes."""

    def __init__(self) -> None:
        self.keys: dict[int, tuple[Term, tuple]] = {}
        self.concats: dict[int, tuple[Term, tuple | None]] = {}

    def key(self, term: Term) -> tuple:
        hit = self.keys.get(id(term))
        if hit is not None:
            return hit[1]
        if isinstance(term, Const):
            key: tuple = (0, term.width, term.value)
        elif isinstance(term, Var):
            key = (1, term.width, term.name)
        else:
            assert isinstance(term, App)
            key = (
                2, term.width, term.op, term.params,
                tuple(self.key(a) for a in term.args),
            )
        self.keys[id(term)] = (term, key)
        return key

    def pieces(self, node: App) -> tuple[list[int], list[Term]] | None:
        """The non-``concat`` leaves of ``node``'s concat tree, lowest
        first, and the bit offset each starts at; None when a leaf is
        empty, which leaves an offset without one owner."""
        hit = self.concats.get(id(node))
        if hit is None:
            starts: list[int] = []
            leaves: list[Term] = []
            low = 0
            stack: list[Term] = [node]
            while stack:
                part = stack.pop()
                if isinstance(part, App) and part.op == "concat":
                    stack.extend(part.args)  # low part on top
                else:
                    starts.append(low)
                    leaves.append(part)
                    low += part.width
            index = None
            if all(leaf.width > 0 for leaf in leaves):
                index = (starts, leaves)
            hit = self.concats[id(node)] = (node, index)
        return hit[1]


def simplify(term: Term) -> Term:
    """Return an equivalent, normalised term."""
    cache: dict[int, Term] = {}
    scope = _Scope()

    def run(node: Term) -> Term:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, (Const, Var)):
            result: Term = node
        else:
            assert isinstance(node, App)
            args = [run(a) for a in node.args]
            result = _simplify_app(node.op, args, node.params, node.width, scope)
        cache[id(node)] = result
        return result

    return run(term)


def _all_const(args: list[Term]) -> bool:
    return all(isinstance(a, Const) for a in args)


def _fold(op: str, args: list[Term], params: tuple[int, ...]) -> Const:
    """Evaluate an all-constant application down to a literal."""
    app = apply_op(op, args, params)
    value = evaluate(app, {})
    return Const(value.width, value.value)


def _is_zero(term: Term) -> bool:
    return isinstance(term, Const) and term.value == 0


def _is_all_ones(term: Term) -> bool:
    return isinstance(term, Const) and term.value == (1 << term.width) - 1


def _simplify_app(
    op: str, args: list[Term], params: tuple[int, ...], width: int, scope: _Scope
) -> Term:
    if _all_const(args):
        return _fold(op, args, params)

    if op in _COMMUTATIVE:
        args = sorted(args, key=scope.key)

    first = args[0]
    second = args[1] if len(args) > 1 else None

    if op == "bvadd":
        if _is_zero(first):
            return second
        if _is_zero(second):
            return first
    elif op == "bvsub":
        if _is_zero(second):
            return first
        if first == second:
            return Const(width, 0)
    elif op == "bvmul":
        if _is_zero(first) or _is_zero(second):
            return Const(width, 0)
        if isinstance(first, Const) and first.value == 1:
            return second
        if isinstance(second, Const) and second.value == 1:
            return first
    elif op == "bvand":
        if _is_zero(first) or _is_zero(second):
            return Const(width, 0)
        if _is_all_ones(first):
            return second
        if _is_all_ones(second):
            return first
        if first == second:
            return first
    elif op == "bvor":
        if _is_zero(first):
            return second
        if _is_zero(second):
            return first
        if _is_all_ones(first) or _is_all_ones(second):
            return Const(width, (1 << width) - 1)
        if first == second:
            return first
    elif op == "bvxor":
        if _is_zero(first):
            return second
        if _is_zero(second):
            return first
        if first == second:
            return Const(width, 0)
    elif op in ("bvshl", "bvlshr", "bvashr"):
        if _is_zero(second):
            return first
        if _is_zero(first):
            return Const(width, 0)
    elif op == "ite":
        cond, then_term, else_term = args
        if isinstance(cond, Const):
            return then_term if cond.value else else_term
        if then_term == else_term:
            return then_term
    elif op == "extract":
        high, low = params
        if low == 0 and high == first.width - 1:
            return first
        # extract of extract composes into a single extract.
        if isinstance(first, App) and first.op == "extract":
            inner_high, inner_low = first.params
            del inner_high
            return _simplify_app(
                "extract",
                [first.args[0]],
                (inner_low + high, inner_low + low),
                width,
                scope,
            )
        # extract of concat resolves into whichever side it lands in.
        if isinstance(first, App) and first.op == "concat":
            return _extract_of_concat(first, high, low, width, scope)
        # extract of zext/sext that stays within the original operand.
        if isinstance(first, App) and first.op in ("zext", "sext"):
            operand = first.args[0]
            if high < operand.width:
                return _simplify_app("extract", [operand], (high, low), width, scope)
    elif op in ("zext", "sext", "trunc"):
        if params[0] == first.width:
            return first
        if op == "trunc":
            return _simplify_app(
                "extract", [first], (params[0] - 1, 0), params[0], scope
            )
        # zext/sext of zext/sext collapse when compatible.
        if isinstance(first, App) and first.op == "zext" and op == "zext":
            return _simplify_app("zext", [first.args[0]], params, width, scope)
        if isinstance(first, App) and first.op == "sext" and op == "sext":
            return _simplify_app("sext", [first.args[0]], params, width, scope)
        if isinstance(first, App) and first.op == "zext" and op == "sext":
            # The zero-extended value is non-negative, so sext == zext.
            return _simplify_app("zext", [first.args[0]], params, width, scope)
    elif op == "bveq":
        if first == second:
            return Const(1, 1)
    elif op in ("bvsmin", "bvsmax", "bvumin", "bvumax"):
        if first == second:
            return first

    return apply_op(op, args, params)


def _extract_of_concat(
    node: App, high: int, low: int, width: int, scope: _Scope
) -> Term:
    """``extract [high:low]`` of the concat tree ``node``, short of the
    whole of it: what descending one concat level at a time reaches.

    An extract inside one leaf of the tree is found by an offset lookup
    and continues on that leaf.  Otherwise the descent runs, without a
    call per level, to the deepest concat holding the extract: that node
    itself when the extract covers it exactly, else an ``extract`` of it.
    """
    pieces = scope.pieces(node)
    if pieces is not None:
        starts, leaves = pieces
        first = bisect_right(starts, low) - 1
        if first == bisect_right(starts, high) - 1:
            offset = starts[first]
            return _simplify_app(
                "extract", [leaves[first]], (high - offset, low - offset),
                width, scope,
            )
    while True:
        high_part, low_part = node.args
        split = low_part.width
        if high < split:
            node = low_part
        elif low >= split:
            node, high, low = high_part, high - split, low - split
        else:
            return apply_op("extract", [node], (high, low))
        if not (isinstance(node, App) and node.op == "concat"):
            return _simplify_app("extract", [node], (high, low), width, scope)
        if low == 0 and high == node.width - 1:
            return node


def simplify_extract(term: Term, high: int, low: int) -> Term:
    """``simplify(extract(term, high, low))`` for an already simplified
    ``term``, without walking it again."""
    return _simplify_app("extract", [term], (high, low), high - low + 1, _Scope())


def structurally_equal(a: Term, b: Term) -> bool:
    """True when the two terms normalise to the identical tree."""
    return simplify(a) == simplify(b)


def substitute(term: Term, bindings: dict[str, Term]) -> Term:
    """Replace variables by terms (used for symbolic-parameter instantiation)."""
    cache: dict[int, Term] = {}

    def run(node: Term) -> Term:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            result = bindings.get(node.name, node)
            if result is not node and result.width != node.width:
                raise ValueError(
                    f"substitution for {node.name!r} changes width "
                    f"{node.width} -> {result.width}"
                )
        elif isinstance(node, Const):
            result = node
        else:
            assert isinstance(node, App)
            result = apply_op(node.op, [run(a) for a in node.args], node.params)
        cache[id(node)] = result
        return result

    return run(term)
