"""Memoization cache for synthesis results (Section 4.1, Table 4).

"Records synthesis results for each input expression to enable reuse."
Keys canonicalise the input window — load names are replaced by
positional placeholders so that structurally identical windows from
different benchmarks hit the same entry, which is what makes Table 4's
column II (compiling the n-th benchmark against a cache warmed by the
others) dramatically cheaper than column I.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.bitvector.bv import BitVector
from repro.halide import ir as hir
from repro.synthesis.program import SInput, SNode, evaluate_program, map_program


def _appearance_order(expr: hir.HExpr) -> list[str]:
    """Input names in first-appearance (depth-first) order."""
    order: list[str] = []

    def visit(node: hir.HExpr) -> None:
        if isinstance(node, (hir.HLoad, hir.HBroadcast)):
            if node.name not in order:
                order.append(node.name)
        for kid in node.children():
            visit(kid)

    visit(expr)
    return order


# The attributes canonical_key writes after a node's label, in this order
# (absent ones skipped); _build_node reads them back positionally.
_KEY_ATTRS = ("op", "kind", "start", "lanes", "factor", "new_elem_width", "indices")


def canonical_key(expr: hir.HExpr, isa: str) -> str:
    """A serialization of the window, canonical in load naming."""
    names: dict[str, str] = {}

    def serialize(node: hir.HExpr) -> str:
        if isinstance(node, hir.HLoad):
            placeholder = names.setdefault(node.name, f"in{len(names)}")
            return f"(load {placeholder} {node.lanes} {node.elem_width})"
        if isinstance(node, hir.HBroadcast):
            placeholder = names.setdefault(node.name, f"in{len(names)}")
            return f"(splat {placeholder} {node.lanes} {node.elem_width})"
        if isinstance(node, hir.HConst):
            return f"(const {node.value} {node.lanes} {node.elem_width})"
        label = type(node).__name__
        attrs = []
        for attr in _KEY_ATTRS:
            value = getattr(node, attr, None)
            if value is not None:
                attrs.append(str(value))
        kids = " ".join(serialize(k) for k in node.children())
        return f"({label} {' '.join(attrs)} {kids})"

    return f"{isa}:{serialize(expr)}"


# ----------------------------------------------------------------------
# Parsing canonical keys back into windows (the inverse of canonical_key)
# ----------------------------------------------------------------------


class KeyParseError(ValueError):
    """A canonical cache key cannot be reconstructed into a window."""


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
# Exactly the shape canonical_key emits for HConst nodes.
_CONST_RE = re.compile(r"\(const (-?\d+|\?) (\d+) (\d+)\)")


def split_key(key: str) -> tuple[str, str]:
    isa, sep, body = key.partition(":")
    if not sep or not body:
        raise KeyParseError(f"malformed cache key {key!r}")
    return isa, body


def abstract_key(key: str) -> str:
    """The key with every constant's *value* replaced by ``?``.

    Two windows share an abstract key exactly when they are identical up
    to load naming and constant values — same structure, same lane
    counts, same element widths.  This is the rulebook's index key.
    """
    return _CONST_RE.sub(
        lambda m: f"(const ? {m.group(2)} {m.group(3)})", key
    )


def const_slots(key: str) -> list[tuple[int | None, int, int]]:
    """``(value, lanes, elem_width)`` of every constant, in key order.

    Textual order equals the serializer's depth-first order, so slot
    positions line up between a concrete key and its abstract key.
    """
    return [
        (None if value == "?" else int(value), int(lanes), int(ew))
        for value, lanes, ew in _CONST_RE.findall(key)
    ]


def parse_window(key: str, const_hook=None) -> tuple[str, hir.HExpr]:
    """Reconstruct the Halide window a canonical cache key serializes.

    Loads and broadcasts come back with their positional names
    (``in0``...).  ``const_hook(index, value, lanes, ew)`` — when given —
    is consulted for every constant position (``value`` is the token
    string, ``"?"`` in abstract keys) and may return a replacement node;
    returning None falls back to the literal constant.  Shuffle windows
    raise :class:`KeyParseError` (their index tuples serialize opaquely
    and never lane-scale, so they are not distillable).
    """
    isa, body = split_key(key)
    tokens = _TOKEN_RE.findall(body)
    pos = 0
    const_index = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise KeyParseError("truncated key")
        token = tokens[pos]
        pos += 1
        return token

    def expect(token: str) -> None:
        got = take()
        if got != token:
            raise KeyParseError(f"expected {token!r}, got {got!r}")

    def parse() -> hir.HExpr:
        nonlocal const_index
        expect("(")
        head = take()
        try:
            if head in ("load", "splat"):
                name, lanes, ew = take(), int(take()), int(take())
                expect(")")
                leaf = hir.HLoad if head == "load" else hir.HBroadcast
                return leaf(name, lanes, ew)
            if head == "const":
                value, lanes, ew = take(), int(take()), int(take())
                expect(")")
                index = const_index
                const_index += 1
                if const_hook is not None:
                    node = const_hook(index, value, lanes, ew)
                    if node is not None:
                        return node
                if value == "?":
                    raise KeyParseError("abstract constant without a hook")
                return hir.HConst(int(value), lanes, ew)
        except ValueError as exc:
            raise KeyParseError(f"bad {head} node: {exc}") from exc
        attrs: list[str] = []
        while peek() not in ("(", ")", None):
            attrs.append(take())
        kids: list[hir.HExpr] = []
        while peek() == "(":
            kids.append(parse())
        expect(")")
        return _build_node(head, attrs, kids)

    expr = parse()
    if pos != len(tokens):
        raise KeyParseError("trailing tokens in key")
    return isa, expr


def _build_node(
    label: str, attrs: list[str], kids: list[hir.HExpr]
) -> hir.HExpr:
    # ``attrs`` are in _KEY_ATTRS order.
    try:
        if label == "HBin":
            return hir.HBin(attrs[0], kids[0], kids[1])
        if label == "HCmp":
            return hir.HCmp(attrs[0], kids[0], kids[1])
        if label == "HSelect":
            return hir.HSelect(kids[0], kids[1], kids[2])
        if label == "HCast":
            return hir.HCast(attrs[0], kids[0], int(attrs[1]))
        if label == "HSlice":
            return hir.HSlice(kids[0], int(attrs[0]), int(attrs[1]))
        if label == "HConcat":
            return hir.HConcat(tuple(kids))
        if label == "HReduceAdd":
            return hir.HReduceAdd(kids[0], int(attrs[0]))
    except (ValueError, TypeError, IndexError) as exc:
        raise KeyParseError(f"cannot rebuild {label}: {exc}") from exc
    raise KeyParseError(f"unsupported node label {label!r}")


def window_env(expr: hir.HExpr, rng: random.Random) -> dict[str, BitVector]:
    """A random concrete input environment for a window.

    Loads bind the full register; broadcasts bind one element — the
    binding convention of :func:`repro.halide.ir.interpret`.
    """
    env: dict[str, BitVector] = {}
    for node in expr.walk():
        if isinstance(node, hir.HLoad):
            env.setdefault(
                node.name,
                BitVector(rng.getrandbits(node.type.bits), node.type.bits),
            )
        elif isinstance(node, hir.HBroadcast):
            env.setdefault(
                node.name,
                BitVector(rng.getrandbits(node.elem_width), node.elem_width),
            )
    return env


def check_stored_program(
    program: SNode, spec: hir.HExpr, rng: random.Random, trials: int
) -> str | None:
    """Why a stored program must not be served for ``spec``, or None.

    Every tier that replays a program it did not just verify (the
    persistent cache, the rulebook matcher, the rule distiller) runs
    this first, and so does CEGIS on a scaled-up program it could not
    prove at full width.  The structural half — every input is a load of the
    spec at its width, and the output width matches — draws nothing
    from ``rng``.  Then ``trials`` random inputs from :func:`window_env`
    must give the spec's value.  Any exception is a failed check.  A
    sound program equals its spec on every input, so it always passes;
    None therefore means "not refuted", not "verified".
    """
    try:
        loads = spec.loads()
        for node in program.walk():
            if not isinstance(node, SInput):
                continue
            declared = loads.get(node.name)
            if declared is None:
                return f"program reads unknown input {node.name!r}"
            if declared.bits != node.bits:
                return (
                    f"input {node.name!r} has width {node.bits}, "
                    f"specification expects {declared.bits}"
                )
        if program.bits != spec.type.bits:
            return (
                f"program output width {program.bits}, "
                f"specification expects {spec.type.bits}"
            )
        for _ in range(trials):
            env = window_env(spec, rng)
            if evaluate_program(program, env).value != hir.interpret(spec, env).value:
                return "program differs from the specification on a random input"
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        return f"check raised {type(exc).__name__}: {exc}"
    return None


@dataclass
class CacheEntry:
    program: SNode
    cost: float
    input_order: list[str]


class MemoCache:
    """In-memory synthesis cache with hit/miss accounting.

    The paper implements this as a Racket hash table whose lookups
    dominate warm-cache compile times; ours is a Python dict, so the
    per-invocation Racket overhead column of Table 4 is modelled
    separately by the experiment harness.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CacheEntry] = {}
        self._failures: set[str] = set()
        # CEGIS budget (seconds) each failure was recorded under; None
        # means "unconditional" (legacy entries, or no budget known).
        self._failure_budgets: dict[str, float | None] = {}
        # The budget of the synthesis run currently using this cache,
        # declared via set_budget() by the CEGIS driver.
        self.budget_seconds: float | None = None
        self.hits = 0
        self.misses = 0
        # Negative-cache hits are counted separately: a window served
        # from the failure set skips synthesis just like a positive hit,
        # so Table 4 / service hit rates must include them.
        self.failure_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict[str, int]:
        """A snapshot of the accounting counters (for telemetry deltas)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "failure_hits": self.failure_hits,
            "entries": len(self._entries),
            "failures": len(self._failures),
        }

    def set_budget(self, seconds: float | None) -> None:
        """Declare the CEGIS budget of the run about to use this cache.

        Failures are recorded tagged with this budget; a recorded failure
        is only replayed when it was established under at least the
        current budget — a window that merely timed out under a retry's
        halved budget must not poison later full-budget runs.
        """
        self.budget_seconds = seconds

    # The public methods serialize the window once; the keyed forms let
    # a subclass that needs the key itself pass it down instead of
    # serializing again.

    def lookup_failure(self, expr: hir.HExpr, isa: str) -> bool:
        """True when this window already failed synthesis (negative cache)."""
        return self._lookup_failure_key(canonical_key(expr, isa))

    def store_failure(self, expr: hir.HExpr, isa: str) -> None:
        self._store_failure_key(canonical_key(expr, isa))

    def lookup(self, expr: hir.HExpr, isa: str) -> CacheEntry | None:
        return self._lookup_key(canonical_key(expr, isa), expr)

    def store(self, expr: hir.HExpr, isa: str, program: SNode, cost: float) -> None:
        self._store_key(canonical_key(expr, isa), expr, program, cost)

    def _lookup_failure_key(self, key: str) -> bool:
        if key not in self._failures:
            return False
        recorded = self._failure_budgets.get(key)
        if (
            recorded is not None
            and self.budget_seconds is not None
            and recorded < self.budget_seconds - 1e-9
        ):
            # Recorded under a smaller budget than we now have: treat as
            # unknown and let synthesis retry with the full budget.
            from repro.faults import recovered

            recovered()
            return False
        self.failure_hits += 1
        return True

    def _store_failure_key(self, key: str) -> None:
        self._failures.add(key)
        previous = self._failure_budgets.get(key, "unset")
        if previous is None:
            return  # already unconditional; a budgeted re-failure can't widen it
        if (
            previous != "unset"
            and self.budget_seconds is not None
            and self.budget_seconds <= previous
        ):
            return  # keep the larger recorded budget
        self._failure_budgets[key] = self.budget_seconds

    def _lookup_key(self, key: str, expr: hir.HExpr) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        # Equal keys mean the windows are identical up to load naming by
        # first appearance; rename the cached program's inputs positionally.
        new_order = _appearance_order(expr)
        mapping = dict(zip(entry.input_order, new_order))
        return CacheEntry(
            _rename(entry.program, mapping), entry.cost, new_order
        )

    def _store_key(
        self, key: str, expr: hir.HExpr, program: SNode, cost: float
    ) -> None:
        self._entries[key] = CacheEntry(
            program, cost, _appearance_order(expr)
        )
        # A success supersedes any failure recorded under a smaller budget.
        self._failures.discard(key)
        self._failure_budgets.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
        self._failures.clear()
        self._failure_budgets.clear()
        self.hits = 0
        self.misses = 0
        self.failure_hits = 0


def _rename(program: SNode, mapping: dict[str, str]) -> SNode:
    def fix(node: SNode) -> SNode:
        if isinstance(node, SInput):
            return SInput(
                mapping.get(node.name, node.name), node.lanes, node.elem_width
            )
        return node

    return map_program(program, fix)
