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
from dataclasses import dataclass

from repro.bitvector.bv import BitVector
from repro.halide import ir as hir
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SInput,
    SNode,
    SOp,
    SSlice,
    SSwizzle,
    evaluate_program,
)


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
        for attr in ("op", "kind", "start", "lanes", "factor", "new_elem_width", "indices"):
            value = getattr(node, attr, None)
            if value is not None:
                attrs.append(str(value))
        kids = " ".join(serialize(k) for k in node.children())
        return f"({label} {' '.join(attrs)} {kids})"

    return f"{isa}:{serialize(expr)}"


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
    this first.  The structural half — every input is a load of the
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

    With ``max_entries`` set the positive-entry table becomes a bounded
    LRU (insertion order refreshed on every hit, least-recently-used
    entry evicted on overflow) — the mode the daemon's in-memory tier
    runs in so a long-lived process cannot grow without bound.  The
    default stays unbounded: in-process compiles and the persistent
    cache want every entry resident.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        self.max_entries = max_entries
        self.evictions = 0
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
            "evictions": self.evictions,
        }

    def set_budget(self, seconds: float | None) -> None:
        """Declare the CEGIS budget of the run about to use this cache.

        Failures are recorded tagged with this budget; a recorded failure
        is only replayed when it was established under at least the
        current budget — a window that merely timed out under a retry's
        halved budget must not poison later full-budget runs.
        """
        self.budget_seconds = seconds

    def lookup_failure(self, expr: hir.HExpr, isa: str) -> bool:
        """True when this window already failed synthesis (negative cache)."""
        key = canonical_key(expr, isa)
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

    def store_failure(self, expr: hir.HExpr, isa: str) -> None:
        key = canonical_key(expr, isa)
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

    def lookup(self, expr: hir.HExpr, isa: str) -> CacheEntry | None:
        key = canonical_key(expr, isa)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.max_entries is not None:
            # Refresh recency: dict insertion order is the LRU order.
            self._entries.pop(key)
            self._entries[key] = entry
        # Equal keys mean the windows are identical up to load naming by
        # first appearance; rename the cached program's inputs positionally.
        new_order = _appearance_order(expr)
        mapping = dict(zip(entry.input_order, new_order))
        return CacheEntry(
            _rename(entry.program, mapping), entry.cost, new_order
        )

    def store(self, expr: hir.HExpr, isa: str, program: SNode, cost: float) -> None:
        key = canonical_key(expr, isa)
        self._entries.pop(key, None)  # re-store refreshes recency
        self._entries[key] = CacheEntry(
            program, cost, _appearance_order(expr)
        )
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1
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
        self.evictions = 0


def _rename(program: SNode, mapping: dict[str, str]) -> SNode:
    def fix(node: SNode) -> SNode:
        if isinstance(node, SInput):
            return SInput(mapping.get(node.name, node.name), node.lanes, node.elem_width)
        if isinstance(node, SConstant):
            return node
        if isinstance(node, SSlice):
            return SSlice(fix(node.src), node.high)
        if isinstance(node, SConcat):
            return SConcat(fix(node.high_part), fix(node.low_part))
        if isinstance(node, SSwizzle):
            return SSwizzle(
                node.pattern,
                tuple(fix(a) for a in node.args),
                node.elem_width,
                node.out_bits,
                node.amount,
            )
        assert isinstance(node, SOp)
        return SOp(
            node.op,
            node.binding,
            tuple(fix(a) for a in node.args),
            node.imm_values,
            node.scaled_values,
            node.out_bits,
        )

    return fix(program)
