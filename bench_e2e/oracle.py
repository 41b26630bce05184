"""Reference oracle: served programs against the Halide interpreter.

Every (window, program) pair is evaluated with ``evaluate_program`` and
compared with ``repro.halide.ir.interpret`` at full width, on boundary
inputs (0, -1, min, max, alternating) plus seeded random ones.  The
interpreter shares no code with synthesis, the cache or the rulebook, so
agreement is evidence about the served program, not about the compiler's
own opinion of it.
"""

from __future__ import annotations

import random

from repro.autollvm import build_dictionary
from repro.autollvm.intrinsics import dictionary_isas
from repro.backend.hydride import rewrite_broadcasts
from repro.bitvector.bv import BitVector
from repro.halide import ir as hir
from repro.service.store import PersistentCache
from repro.synthesis.cache import canonical_key
from repro.synthesis.program import evaluate_program
from repro.synthesis.rules import program_signature
from repro.workloads.registry import benchmark_named

RANDOM_INPUTS = 64


def _inputs(expr: hir.HExpr) -> dict[str, tuple[int, int]]:
    """Input name -> (elements bound, element width): a load binds the
    whole register, a broadcast one element."""
    out: dict[str, tuple[int, int]] = {}
    for node in expr.walk():
        if isinstance(node, hir.HLoad):
            out.setdefault(node.name, (node.lanes, node.elem_width))
        elif isinstance(node, hir.HBroadcast):
            out.setdefault(node.name, (1, node.elem_width))
    return out


def _splat(elems: list[int], width: int) -> BitVector:
    value = 0
    for index, elem in enumerate(elems):
        value |= (elem & ((1 << width) - 1)) << (index * width)
    return BitVector(value, len(elems) * width)


def envs_for(expr: hir.HExpr, rng: random.Random) -> list[dict[str, BitVector]]:
    inputs = _inputs(expr)
    patterns = (
        lambda w, i: 0,
        lambda w, i: -1,
        lambda w, i: 1 << (w - 1),                 # signed min
        lambda w, i: (1 << (w - 1)) - 1,           # signed max
        lambda w, i: (1 << (w - 1)) - (i % 2),     # min/max by lane
    )
    envs = [
        {
            name: _splat([pattern(width, i) for i in range(lanes)], width)
            for name, (lanes, width) in inputs.items()
        }
        for pattern in patterns
    ]
    for _ in range(RANDOM_INPUTS):
        envs.append({
            name: BitVector(rng.getrandbits(lanes * width), lanes * width)
            for name, (lanes, width) in inputs.items()
        })
    return envs


def agrees(expr: hir.HExpr, program, rng: random.Random) -> bool:
    """True when ``program`` equals ``expr`` on every oracle input."""
    for env in envs_for(expr, rng):
        try:
            if evaluate_program(program, env).value != hir.interpret(expr, env).value:
                return False
        except Exception:  # noqa: BLE001 - an unevaluable program is wrong
            return False
    return True


class Verdict:
    """Oracle results for one set of served programs."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: list[str] = []
        # canonical key -> program_signature, for the run-twice check.
        self.signatures: dict[str, str] = {}

    def check(self, isa: str, expr: hir.HExpr, program, rng) -> None:
        key = canonical_key(expr, isa)
        self.checked += 1
        self.signatures[key] = program_signature(program)
        if not agrees(expr, program, rng):
            self.mismatches.append(key)


def check_cache_dir(
    jobs: list[tuple[str, str]], cache_dir: str, seed: int
) -> Verdict:
    """Check what a daemon run left in (or replayed from) ``cache_dir``.

    Each job's windows are looked up through ``PersistentCache.lookup``;
    a window with no entry was split by the compiler, so its operands
    are looked up in turn."""
    rng = random.Random(seed)
    verdict = Verdict()
    caches: dict[str, PersistentCache] = {}

    def visit(window: hir.HExpr, isa: str) -> None:
        entry = caches[isa].lookup(window, isa)
        if entry is not None:
            verdict.check(isa, window, entry.program, rng)
            return
        for kid in window.children():
            if kid.size() > 1:
                visit(kid, isa)

    for benchmark, isa in sorted(set(jobs)):
        if isa not in caches:
            caches[isa] = PersistentCache(
                cache_dir, isa, build_dictionary(dictionary_isas(isa))
            )
        for kernel in benchmark_named(benchmark).lower(isa):
            visit(rewrite_broadcasts(kernel.window), isa)
    # An entry the abstract screen evicted on lookup was corrupt on disk.
    for isa, cache in caches.items():
        verdict.mismatches += [f"{isa}:screen-evicted"] * cache.screen_failures
    return verdict


def check_served(served: list[tuple], seed: int, decode=None) -> Verdict:
    """Check (isa, window, program) pairs captured by the cache proxy.

    ``decode(isa, obj)`` turns a shipped ``snode_to_obj`` dict back into
    a program; None when the pairs hold live programs."""
    rng = random.Random(seed)
    verdict = Verdict()
    seen: set[tuple[str, str]] = set()
    for isa, window, program in served:
        if decode is not None:
            program = decode(isa, program)
        identity = (canonical_key(window, isa), program_signature(program))
        if identity in seen:
            continue
        seen.add(identity)
        verdict.check(isa, window, program, rng)
    return verdict
