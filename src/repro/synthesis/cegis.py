"""Lane-wise CEGIS — the paper's Algorithm 2.

The ``Optimize`` step is realized as bottom-up enumerative search over
the pruned grammar, deduplicated by observational equivalence on the
current counterexample set and explored in cost order; constraints are
asserted only on the *failing lanes* (lane-wise synthesis), with full
symbolic verification afterwards.  Synthesis runs at a scaled-down lane
count and the winning program is scaled back up and re-verified, falling
back to unscaled synthesis on failure — exactly the structure of
Algorithm 2 (lines 2, 7, 9, 11-12, 15-21, 23-26).
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.bitvector.bv import BitVector
from repro.bitvector.lanes import Vector
from repro.bitvector.packed import slice_half
from repro.bitvector.packed import splat as packed_splat
from repro.halide import ir as hir
from repro.perf import global_counters, phase_timer
from repro.smt.solver import EquivalenceChecker, SolverTimeout
from repro.synthesis.cache import MemoCache, check_stored_program
from repro.synthesis.grammar import Grammar, GrammarEntry
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SInput,
    SNode,
    SOp,
    SSlice,
    SSwizzle,
    SWIZZLE_SHAPES,
    evaluate_program,
    make_packed_applier,
    make_packed_program,
    program_to_term,
    sop_applier,
    swizzle_applier,
)
from repro.synthesis.scale import (
    scale_spec,
    scale_up_program,
    scaled_member_values,
)


class SynthesisFailure(Exception):
    """Synthesis did not find an equivalent program within its budget."""

    def __init__(self, message: str, timed_out: bool = False) -> None:
        super().__init__(message)
        self.timed_out = timed_out


# Enumeration bounds: argument-pool size per input width, pool
# admissions per (width, kind, round), candidates per round, and the
# rotate_right amounts tried.
ARGS_PER_WIDTH = 12
POOL_PER_WIDTH = 350
ROUND_BUDGET = 20_000
ROTATE_AMOUNTS = (1,)
# Verification: the seed of the search's RNG and checker, the SAT
# conflict budget per query, and the random inputs a scaled-up program
# not proved at full width is checked on.
SEED = 7
VERIFY_CONFLICTS = 4_000
FULL_WIDTH_TRIALS = 64


@dataclass
class CegisOptions:
    """``scale_factor`` 1 synthesizes unscaled."""

    scale_factor: int = 8
    lanewise: bool = True
    max_depth: int = 3
    timeout_seconds: float = 240.0


@dataclass
class SynthStats:
    seconds: float = 0.0
    iterations: int = 0
    candidates: int = 0
    depth_reached: int = 0
    # 0 = not built: a cache hit or rule match never reads the grammar.
    grammar_size: int = 0
    scale_factor: int = 1
    cache_hit: bool = False
    verified: str = ""


@dataclass
class SynthesisResult:
    program: SNode
    cost: float
    stats: SynthStats
    spec: hir.HExpr


@dataclass
class _Candidate:
    node: SNode
    cost: float
    outs: list[int] = field(default_factory=list)
    depth: int = 0
    # Argument candidates this node was built from (None for leaves):
    # counterexample additions re-evaluate the pool incrementally in
    # creation (= topological) order through these links.
    args: tuple["_Candidate", ...] | None = None
    # The element width this value is structured at (its producer's view);
    # None when unknown.  Depth-0 leaves are untyped raw bits and match
    # any requirement.
    elem: int | None = None
    # True when the candidate's outputs coincide with a subexpression of
    # the specification (or a register half of one) on every seed input —
    # a proven-useful intermediate, ranked first in argument pools.
    landmark: bool = False
    # node.bits and _node_kind(node), read on every pool scan.
    bits: int = 0
    kind: str = "leaf"


@dataclass(frozen=True)
class _Production:
    """One grammar production at fixed argument widths: everything a
    round's combos of it share, so a combo is evaluated on its argument
    candidates' memoised outputs and becomes a node only if admitted."""

    out_bits: int
    kind: str
    # Packed applier; None when building it failed, which rejects every
    # combo exactly as a failing application does.
    apply: Callable[[list[int]], int] | None
    # Argument candidates -> the SNode applying this production to them.
    build: Callable[[tuple["_Candidate", ...]], SNode]


def _build_concat(args: tuple["_Candidate", ...]) -> SNode:
    return SConcat(args[0].node, args[1].node)


def _build_slice(high: bool, args: tuple["_Candidate", ...]) -> SNode:
    return SSlice(args[0].node, high)


def _build_op(
    entry: GrammarEntry, values, out_bits: int, args: tuple["_Candidate", ...]
) -> SNode:
    return SOp(
        entry.op,
        entry.binding,
        tuple(c.node for c in args),
        entry.imm_values,
        values,
        out_bits,
    )


def _build_swizzle(
    pattern: str,
    elem_width: int,
    out_bits: int,
    amount: int,
    args: tuple["_Candidate", ...],
) -> SNode:
    return SSwizzle(
        pattern, tuple(c.node for c in args), elem_width, out_bits, amount
    )


class _Enumerator:
    """Pool of observationally-distinct candidates, grown depth by depth."""

    def __init__(
        self,
        grammar: Grammar,
        spec: hir.HExpr,
        rng: random.Random,
        deadline: float,
        scale_factor: int,
    ) -> None:
        self.grammar = grammar
        self.spec = spec
        self.rng = rng
        self.deadline = deadline
        # Lane-scaling factor the search runs at, and the per-entry
        # scaled parameter values it implies.
        self.scale_factor = scale_factor
        self._scaled_cache: dict[int, object] = {}
        self.envs: list[dict[str, BitVector]] = []
        # Per env: every spec node's value (hir.node_values), and the root's.
        self.spec_values: list[dict[int, BitVector]] = []
        self.spec_outs: list[BitVector] = []
        self.pool: list[_Candidate] = []
        self.by_width: dict[int, list[_Candidate]] = {}
        self._kind_counts: dict[tuple[int, str, int], int] = {}
        self._landmarks: set[tuple[int, tuple[int, ...]]] = set()
        # by_width's landmark candidates, in bucket order.
        self._landmarks_by_width: dict[int, list[_Candidate]] = {}
        # What a register pairing's low half must be for the pairing to
        # be a landmark (per pairing width) or a spec lane-0 match.
        self._landmark_lows: dict[int, set[tuple[int, ...]]] = {}
        self._spec_lane0: tuple[int, ...] = ()
        # Candidates computing exactly the spec's low / high output half.
        self._half_lo: list[_Candidate] = []
        self._half_hi: list[_Candidate] = []
        self._half_paired: set[tuple[int, int]] = set()
        # Memoised _args_for results per width: an admission to width W
        # changes only by_width[W], so only W's pools are dropped.
        self._args_cache: dict[int, dict[tuple, list[_Candidate]]] = {}
        self.seen: set[tuple] = set()
        self.depth = 0
        self.total_candidates = 0
        self.spec_bits = spec.type.bits
        self.spec_elem_width = spec.type.elem_width
        self.max_bits = 2 * max(
            [self.spec_bits] + [i.bits for i in grammar.inputs] + [1]
        )
        from repro.synthesis.grammar import _spec_profile

        self.spec_bv_ops, _, _ = _spec_profile(spec)
        # The spec's loads, in the order inputs are drawn and packed.
        self.loads = [(name, t.bits) for name, t in sorted(spec.loads().items())]
        # Pre-resolve entry shapes (scaled widths computed lazily).
        self._entry_shapes: list[tuple[GrammarEntry, tuple[int, ...], list[int], int]] = []

    def _check_deadline(self) -> None:
        # Deadlines are monotonic-clock values: wall-clock adjustments
        # (NTP slew, DST) must neither blow nor extend synthesis budgets.
        if time.monotonic() > self.deadline:
            raise SynthesisFailure("synthesis timed out", timed_out=True)

    # -- environments ---------------------------------------------------

    def add_env(self, env: dict[str, BitVector]) -> None:
        with phase_timer("dedup"):
            self._add_env(env)

    def _add_env(self, env: dict[str, BitVector]) -> None:
        self.envs.append(env)
        values = hir.node_values(self.spec, env)
        self.spec_values.append(values)
        self.spec_outs.append(values[id(self.spec)])
        # The pool is in creation order, which is topological: each
        # candidate's value on the new input derives from its arguments'
        # freshly appended values with a single node application.
        env_index = len(self.envs) - 1
        for candidate in self.pool:
            try:
                if candidate.args is None:
                    node = candidate.node
                    if isinstance(node, SInput):
                        value = env[node.name].value
                    elif isinstance(node, SConstant):
                        if node.lanes <= 0:
                            raise ValueError("constant splat needs lanes")
                        value = packed_splat(
                            node.value, node.lanes, node.elem_width
                        )
                    else:
                        value = evaluate_program(node, env).value
                else:
                    applier = make_packed_applier(
                        candidate.node,
                        tuple(a.bits for a in candidate.args),
                    )
                    value = applier(
                        [a.outs[env_index] for a in candidate.args]
                    )
                candidate.outs.append(value)
            except Exception:
                candidate.outs.append(-1)
        # Re-key dedup (outputs grew).
        self.seen = {(c.bits, tuple(c.outs)) for c in self.pool}
        self._rebuild_landmarks()
        for candidate in self.pool:
            candidate.landmark = (
                (candidate.bits, tuple(candidate.outs)) in self._landmarks
            )
        self._landmarks_by_width = {
            bits: [c for c in bucket if c.landmark]
            for bits, bucket in self.by_width.items()
        }
        # Landmark flags feed argument-pool ranking.
        self._args_cache.clear()

    def _rebuild_landmarks(self) -> None:
        """Values of every specification subexpression (and their register
        halves) on the current seed inputs: goal-directed waypoints."""
        self._landmarks = set()
        for node_id, value in self.spec_values[0].items():
            bits = value.width
            values = tuple(per_env[node_id].value for per_env in self.spec_values)
            self._landmarks.add((bits, values))
            if bits % 2 == 0 and bits >= 16:
                half = bits // 2
                mask = (1 << half) - 1
                self._landmarks.add((half, tuple(v & mask for v in values)))
                self._landmarks.add((half, tuple((v >> half) & mask for v in values)))
        self._landmark_lows = {}
        for bits, values in self._landmarks:
            if bits % 2 == 0:
                mask = (1 << (bits // 2)) - 1
                self._landmark_lows.setdefault(bits, set()).add(
                    tuple(v & mask for v in values)
                )
        lane_mask = (1 << self.spec_elem_width) - 1
        self._spec_lane0 = tuple(out.value & lane_mask for out in self.spec_outs)

    def random_loads(self) -> list[int]:
        """Uniformly random register values, one per load in name order.

        Deliberately *not* seeded with all-zeros/all-ones boundary values:
        a zeroed multiplicand collapses the specification onto its
        accumulator, making trivial candidates "match" and poisoning the
        landmark table.  Boundary cases reach CEGIS through verification
        counterexamples instead."""
        values = []
        for _name, bits in self.loads:
            value = self.rng.getrandbits(bits)
            if value == 0:
                value = self.rng.getrandbits(bits) | 1
            values.append(value)
        return values

    def boxed(self, values: list[int]) -> dict[str, BitVector]:
        """:meth:`random_loads` values as an interpreter environment."""
        return {
            name: BitVector(value, bits)
            for (name, bits), value in zip(self.loads, values)
        }

    def random_env(self) -> dict[str, BitVector]:
        return self.boxed(self.random_loads())

    # -- pool growth ------------------------------------------------------

    def _eval_outs(
        self,
        node: SNode,
        arg_candidates: tuple["_Candidate", ...] | None,
    ) -> list[int] | None:
        """The candidate's output on every environment in one pass, or
        None when any application fails (the candidate is rejected)."""
        try:
            if arg_candidates is not None:
                applier = make_packed_applier(
                    node, tuple(c.bits for c in arg_candidates)
                )
                return [
                    applier([c.outs[i] for c in arg_candidates])
                    for i in range(len(self.envs))
                ]
            if isinstance(node, SInput):
                return [env[node.name].value for env in self.envs]
            if isinstance(node, SConstant):
                if node.lanes <= 0:
                    return None
                value = packed_splat(node.value, node.lanes, node.elem_width)
                return [value] * len(self.envs)
            return [evaluate_program(node, env).value for env in self.envs]
        except Exception:
            return None

    def _counts(self, bits: int) -> bool:
        """The width-range gate every admission path opens with; a
        candidate that passes it is counted as evaluated before dedup
        or the cap sees it.  So ``cegis.candidates`` (and
        ``candidates_per_s``) counts candidates that passed the width
        gate, whether or not they were evaluated or entered the pool."""
        if bits <= 0 or bits > self.max_bits:
            return False
        global_counters().candidates_evaluated += 1
        return True

    def _admit(
        self,
        node: SNode,
        cost: float,
        depth: int,
        force: bool = False,
        arg_candidates: tuple["_Candidate", ...] | None = None,
    ) -> None:
        """Admit an already-built node (the leaves; and the reference the
        outs-first paths below are tested against)."""
        if not self._counts(node.bits):
            return
        outs = self._eval_outs(node, arg_candidates)
        if outs is not None:
            self._insert(
                node.bits, outs, _node_kind(node), cost, depth, force,
                arg_candidates, lambda _args: node,
            )

    def _admit_concat(
        self,
        high: _Candidate,
        low: _Candidate,
        cost: float,
        depth: int,
        force: bool = False,
    ) -> None:
        """``high:low`` register pairing, from the parts' memoised outputs."""
        high_bits, low_bits = high.bits, low.bits
        if self._counts(high_bits + low_bits):
            # packed.concat_pair, inlined: this runs once per pairing
            # _grow does not shed unbuilt (_view_cap_spent, _may_lead).
            high_mask, low_mask = (1 << high_bits) - 1, (1 << low_bits) - 1
            outs = [
                ((h & high_mask) << low_bits) | (l & low_mask)
                for h, l in zip(high.outs, low.outs)
            ]
            self._insert(
                high_bits + low_bits, outs, "view", cost, depth, force,
                (high, low), _build_concat,
            )

    def _view_cap_spent(self, bits: int) -> bool:
        """Whether this round's ``(bits, "view")`` allowance is used up;
        once it is, it stays so for the rest of the round."""
        if self._kind_counts.get((bits, "view", self.depth), 0) < POOL_PER_WIDTH // 2:
            return False
        # _insert gives the width of a candidate it sheds a bucket.
        self.by_width.setdefault(bits, [])
        return True

    def _may_lead(self, low: _Candidate, memo: dict[int, bool]) -> bool:
        """Whether an unforced ``high:low`` pairing of two equal-width
        values could enter once its view allowance is spent.  Only a
        landmark or a spec lane-0 match can then, and the low half alone
        rules both out.  Outputs and landmarks are fixed within a round,
        so ``memo`` (by ``id``) holds for one ``_grow``."""
        lead = memo.get(id(low))
        if lead is None:
            bits = 2 * low.bits
            low_mask = (1 << low.bits) - 1
            lead = tuple(
                out & low_mask for out in low.outs
            ) in self._landmark_lows.get(bits, ())
            if not lead and bits == self.spec_bits:
                lane_mask = (1 << self.spec_elem_width) - 1
                # A lane 0 wider than the low half reads the high half too.
                lead = low.bits < self.spec_elem_width or tuple(
                    out & lane_mask for out in low.outs
                ) == self._spec_lane0
            memo[id(low)] = lead
        return lead

    def _admit_slice(self, src: _Candidate, high: bool, depth: int) -> None:
        """A free half-register view of ``src``."""
        if self._counts(src.bits // 2):
            outs = [slice_half(value, src.bits, high) for value in src.outs]
            self._insert(
                src.bits // 2, outs, "view", src.cost, depth, True,
                (src,), partial(_build_slice, high),
            )

    def _admit_production(
        self, production: _Production, cost: float, combo: tuple[_Candidate, ...]
    ) -> None:
        if not self._counts(production.out_bits):
            return
        apply = production.apply
        if apply is None:
            return
        try:
            outs = [
                apply([c.outs[i] for c in combo]) for i in range(len(self.envs))
            ]
        except Exception:
            return
        self._insert(
            production.out_bits, outs, production.kind, cost, self.depth,
            False, combo, production.build,
        )

    def _insert(
        self,
        bits: int,
        outs: list[int],
        kind: str,
        cost: float,
        depth: int,
        force: bool,
        args: tuple[_Candidate, ...] | None,
        build,
    ) -> None:
        """Dedup, cap and pool insertion for one evaluated candidate;
        ``build(args)`` constructs its node, for survivors only."""
        key = (bits, tuple(outs))
        if key in self.seen:
            return
        is_landmark = key in self._landmarks
        # Potential solutions, spec-subexpression landmarks and free views
        # always enter the pool; the per-width cap only sheds junk.
        if is_landmark:
            force = True
        if not force and bits == self.spec_bits:
            force = self._matches_lane0(outs)
        # Before the cap check on purpose: a width whose every candidate
        # was shed still owns a bucket the per-width loops of _grow visit.
        bucket = self.by_width.setdefault(bits, [])
        # Caps are per (width, kind, depth): each enumeration round gets
        # its own allowance, so early rounds cannot starve later ones of
        # pool space — only same-round volume is shed.
        kind_key = (bits, kind, depth)
        kind_count = self._kind_counts.get(kind_key, 0)
        cap = POOL_PER_WIDTH if kind == "op" else POOL_PER_WIDTH // 2
        if not force and kind_count >= cap:
            return
        self._kind_counts[kind_key] = kind_count + 1
        self.seen.add(key)
        node = build(args)
        candidate = _Candidate(
            node, cost, outs, depth, args, _elem_view(node, args),
            is_landmark, bits, kind,
        )
        self.pool.append(candidate)
        # insort-right after equal costs == append + stable sort.
        insort(bucket, candidate, key=_cost)
        if is_landmark:
            insort(
                self._landmarks_by_width.setdefault(bits, []), candidate,
                key=_cost,
            )
        self._args_cache.pop(bits, None)
        self.total_candidates += 1
        # Goal-directed register assembly: a candidate that computes
        # exactly the low or high half of the specification is queued so
        # matching halves concatenate into full-width solutions — how a
        # window wider than one target register gets its per-register
        # program without spending a grammar-depth level per concat.
        half_bits = self.spec_bits // 2
        if bits == half_bits and half_bits > 0:
            mask = (1 << half_bits) - 1
            if all(
                out == self.spec_outs[i].value & mask
                for i, out in enumerate(outs)
            ):
                self._half_lo.append(candidate)
            if all(
                out == (self.spec_outs[i].value >> half_bits) & mask
                for i, out in enumerate(outs)
            ):
                self._half_hi.append(candidate)

    def _matches_lane0(self, outs: list[int]) -> bool:
        mask = (1 << self.spec_elem_width) - 1
        for env_index, got in enumerate(outs):
            if got & mask != self.spec_outs[env_index].value & mask:
                return False
        return True

    def seed_pool(self) -> None:
        with phase_timer("enumeration"):
            self._seed_pool()

    def _seed_pool(self) -> None:
        # Leaves come from the (possibly scaled) specification itself so
        # their widths match the scaled search space.
        for name, load_type in sorted(self.spec.loads().items()):
            self._admit(
                SInput(name, load_type.lanes, load_type.elem_width), 0.0, 0
            )
        # Constant splats from the specification's literals, seeded at
        # every (lanes, elem-width) shape the specification mentions —
        # immediate vectors for fused ops often live at a narrower width
        # than the output (e.g. the interleaved byte weights of a
        # pmaddubsw rewrite).
        shapes = {
            (node.type.lanes, node.type.elem_width)
            for node in self.spec.walk()
            if node.type.elem_width > 1
        }
        constants = {
            node.value
            for node in self.spec.walk()
            if isinstance(node, hir.HConst)
        }
        for value in sorted(constants):
            for lanes, elem_width in sorted(shapes):
                if value < (1 << elem_width):
                    self._admit(SConstant(value, lanes, elem_width), 0.0, 0)
        # Half-register views of the leaves are free on real hardware and
        # are needed immediately by D-register (64-bit) ARM instructions.
        for candidate in list(self.pool):
            self._admit_views(candidate, 0)

    def _admit_views(self, candidate: _Candidate, depth: int) -> None:
        """Free half-slices of a value, admitted at the same depth —
        register views never consume a grammar-depth level.  Only one
        level of views: slices of slices/concats add nothing but volume."""
        if candidate.kind == "view":
            return
        if candidate.bits % 2 == 0 and candidate.bits >= 16:
            for high in (False, True):
                self._admit_slice(candidate, high, depth)

    def _args_for(
        self, bits: int, cap: int | None = None, elem: int | None = None
    ):
        """Argument pool for one instruction input: width-exact, and
        element-typed when the semantics dictates a width (a 16-bit-element
        multiply only composes with 16-bit-element producers; untyped
        depth-0 leaves match anything).  Per-kind quotas keep instruction
        results, swizzles and views all represented, and the newest
        round's intermediates always get slots.

        Results are memoised until their width's bucket changes (or a
        new environment re-ranks landmarks, or the depth moves): the
        collection phase of one grow() round asks for the same (width,
        cap, elem) pools once per grammar entry, and the pairing closure
        asks for width W's pool while admitting at width 2W.  Callers
        treat the returned list as read-only."""
        pools = self._args_cache.setdefault(bits, {})
        key = (cap, elem, self.depth)
        hit = pools.get(key)
        if hit is None:
            hit = pools[key] = self._args_for_uncached(bits, cap, elem)
        return hit

    def _args_for_uncached(
        self, bits: int, cap: int | None = None, elem: int | None = None
    ):
        cap = cap or ARGS_PER_WIDTH
        frontier = self.depth - 1
        # The bucket is cost-sorted, so "stable sort by (not landmark,
        # cost)" is "landmarks in bucket order, then the rest in bucket
        # order": each group is that pair of lists, and the rest is read
        # only as far as the group's quota needs.  Groups: instruction
        # results, swizzles, other (leaves, views), the newest round.
        quotas = [cap, max(3, cap // 2), max(4, cap // 2), cap if frontier > 0 else 0]
        landmarks: tuple[list, ...] = ([], [], [], [])
        rest: tuple[list, ...] = ([], [], [], [])

        def typed(c: _Candidate) -> bool:
            return elem is None or c.elem is None or c.elem == elem or c.depth == 0

        for c in self._landmarks_by_width.get(bits, ()):
            if typed(c):
                landmarks[_GROUP.get(c.kind, 2)].append(c)
                if c.depth >= frontier > 0:
                    landmarks[3].append(c)
        needed = [max(0, q - len(l)) for q, l in zip(quotas, landmarks)]
        open_groups = sum(1 for n in needed if n)
        if open_groups:
            for c in self.by_width.get(bits, ()):
                if c.landmark or not typed(c):
                    continue
                group = _GROUP.get(c.kind, 2)
                if needed[group]:
                    rest[group].append(c)
                    needed[group] -= 1
                    if not needed[group]:
                        open_groups -= 1
                if needed[3] and c.depth >= frontier > 0:
                    rest[3].append(c)
                    needed[3] -= 1
                    if not needed[3]:
                        open_groups -= 1
                if not open_groups:
                    break
        ops, swizzles, others, fresh = (
            (l + r)[:q] for l, r, q in zip(landmarks, rest, quotas)
        )
        chosen = ops + swizzles + others
        if frontier > 0:
            seen_ids = {id(c) for c in chosen}
            chosen.extend(c for c in fresh if id(c) not in seen_ids)
        return chosen

    def grow(self) -> None:
        """One depth round: apply every grammar production once."""
        with phase_timer("enumeration"):
            self._grow()

    def _grow(self) -> None:
        self._check_deadline()
        self.depth += 1
        self._args_cache.clear()
        # (production, cost, argument candidates, rank within its group);
        # production None is the free register pairing.
        new_nodes: list[tuple[_Production | None, float, tuple, int]] = []
        frontier = self.depth - 1  # at least one arg from the last round

        # Target instruction applications.
        for entry in self.grammar.entries:
            values = self._scaled_values(entry)
            if values is None:
                continue
            try:
                widths = entry.register_widths(values)
                out_bits = entry.output_bits(values)
            except Exception:
                continue
            if out_bits > self.max_bits:
                continue
            arity = len(widths)
            if arity == 0 or arity > 3:
                continue
            elem_reqs = entry.input_elem_widths(values)
            if len(elem_reqs) != arity:
                elem_reqs = [None] * arity
            pools = [
                self._args_for(w, ARGS_PER_WIDTH, e)
                for w, e in zip(widths, elem_reqs)
            ]
            if any(not p for p in pools):
                continue
            latency = entry.binding.spec.latency
            try:
                apply = sop_applier(
                    entry.binding, values, entry.imm_values, tuple(widths)
                )
            except Exception:
                apply = None
            production = _Production(
                out_bits, "op", apply, partial(_build_op, entry, values, out_bits)
            )
            group = [
                (production, latency + sum(c.cost for c in combo), combo)
                for combo in _combinations(pools, frontier)
            ]
            group.sort(key=_group_key)
            new_nodes.extend((*item, rank) for rank, item in enumerate(group))

        # Swizzle patterns (always in the grammar).
        elem_widths = sorted(
            {n.type.elem_width for n in self.spec.walk() if n.type.elem_width > 1}
        )
        for pattern in self.grammar.swizzle_patterns:
            arity, _ = SWIZZLE_SHAPES[pattern]
            for elem_width in elem_widths:
                for bits in list(self.by_width):
                    if bits % elem_width or (bits // elem_width) < 2:
                        continue
                    out_bits = bits * 2 if pattern == "interleave_full" else bits
                    if out_bits > self.max_bits:
                        continue
                    pools = [self._args_for(bits)] * arity
                    if any(not p for p in pools):
                        continue
                    amounts = ROTATE_AMOUNTS if pattern == "rotate_right" else (0,)
                    for amount in amounts:
                        try:
                            apply = swizzle_applier(
                                pattern, elem_width, amount, (bits,) * arity
                            )
                        except Exception:
                            apply = None
                        build = partial(
                            _build_swizzle, pattern, elem_width, out_bits, amount
                        )
                        production = _Production(out_bits, "swizzle", apply, build)
                        # The cost model reads the pattern only.
                        latency = self.grammar.cost_model.swizzle_cost(build(()))
                        group = [
                            (production, latency + sum(c.cost for c in combo), combo)
                            for combo in _combinations(pools, frontier)
                        ]
                        group.sort(key=_group_key)
                        new_nodes.extend(
                            (*item, rank) for rank, item in enumerate(group)
                        )

        # Concatenations of equal-width values (free register pairing).
        for bits in list(self.by_width):
            if bits * 2 <= self.max_bits:
                pool = self._args_for(bits, max(4, ARGS_PER_WIDTH // 2))
                group = [
                    (None, combo[0].cost + combo[1].cost, combo)
                    for combo in _combinations([pool, pool], frontier)
                ]
                group.sort(key=lambda item: item[1])
                new_nodes.extend((*item, rank) for rank, item in enumerate(group))

        # Deterministic, fair per-round work bound: candidates are taken
        # round-robin across generating instructions (each instruction's
        # combos cost-sorted), so cheap high-fanout families cannot starve
        # expensive three-operand instructions of their budget share.
        new_nodes.sort(key=lambda item: (item[3], item[1]))
        del new_nodes[ROUND_BUDGET:]
        # Most register pairings arrive after their width's view
        # allowance is spent; those that cannot lead (_may_lead) are
        # counted here, in bulk, and never built.
        leads: dict[int, bool] = {}
        shed = 0
        try:
            for production, cost, combo, _rank in new_nodes:
                self._check_deadline()
                if production is not None:
                    self._admit_production(production, cost, combo)
                elif self._view_cap_spent(
                    combo[0].bits + combo[1].bits
                ) and not self._may_lead(combo[1], leads):
                    shed += 1
                else:
                    self._admit_concat(combo[0], combo[1], cost, self.depth)
            # Close the new round under free register views so a slice or
            # a register-pair of this round's results is usable immediately
            # — multi-register outputs (concat of per-register results)
            # would otherwise cost an extra grammar-depth level.
            fresh = [c for c in self.pool if c.depth == self.depth]
            for candidate in fresh:
                self._admit_views(candidate, self.depth)
            for candidate in fresh:
                if candidate.bits * 2 > self.max_bits:
                    continue
                shed += self._pair_with_partners(candidate, leads)
        finally:
            global_counters().candidates_evaluated += shed
        # Assemble solutions from exact half-matches.
        for hi in list(self._half_hi):
            for lo in list(self._half_lo):
                pair_key = (id(hi), id(lo))
                if pair_key in self._half_paired:
                    continue
                self._half_paired.add(pair_key)
                self._admit_concat(
                    hi, lo, hi.cost + lo.cost, self.depth, force=True
                )

    def _pair_with_partners(
        self, candidate: _Candidate, leads: dict[int, bool]
    ) -> int:
        """``candidate:partner`` then ``partner:candidate`` for each partner
        in its width's pool; returns how many pairings were shed unbuilt."""
        bits = 2 * candidate.bits
        shed = 0
        for partner in self._args_for(candidate.bits, 8):
            cost = candidate.cost + partner.cost
            spent = self._view_cap_spent(bits)
            for high, low in ((candidate, partner), (partner, candidate)):
                if spent and not self._may_lead(low, leads):
                    shed += 1
                else:
                    self._admit_concat(high, low, cost, self.depth)
        return shed

    def _scaled_values(self, entry: GrammarEntry):
        if self.scale_factor == 1:
            return entry.binding.member.values()
        key = id(entry)
        if key not in self._scaled_cache:
            self._scaled_cache[key] = scaled_member_values(
                entry.binding, self.scale_factor
            )
        return self._scaled_cache[key]

    # -- solution extraction ----------------------------------------------

    def matching_candidates(self, failing_lanes: set[int], lanewise: bool):
        """Candidates equal to the spec on the asserted lanes (line 7)."""
        out_bits = self.spec_bits
        elem_width = self.spec_elem_width
        matches = []
        for candidate in self.by_width.get(out_bits, []):
            ok = True
            for env_index in range(len(self.envs)):
                spec_out = self.spec_outs[env_index]
                got = candidate.outs[env_index]
                if got < 0:
                    ok = False
                    break
                if lanewise:
                    for lane in failing_lanes:
                        low = lane * elem_width
                        mask = (1 << elem_width) - 1
                        if (got >> low) & mask != (spec_out.value >> low) & mask:
                            ok = False
                            break
                    if not ok:
                        break
                elif got != spec_out.value:
                    ok = False
                    break
            if ok:
                matches.append(candidate)
        matches.sort(key=lambda c: c.cost)
        return matches


def _elem_view(node: SNode, args) -> int | None:
    """The element width a candidate's value is structured at."""
    if isinstance(node, (SInput, SConstant)):
        return node.elem_width
    if isinstance(node, SSwizzle):
        return node.elem_width
    if isinstance(node, SOp):
        # Layout-producing instructions (broadcasts, packs, interleaves)
        # are routinely reinterpreted at other element widths; leave them
        # untyped so they can feed any consumer.
        if node.binding.spec.attributes.get("swizzle"):
            return None
        value = node.binding.spec.attributes.get("elem_width")
        return value if isinstance(value, int) else None
    # Views inherit their source's structure.
    if args:
        return args[0].elem
    return None


def _cost(candidate: _Candidate) -> float:
    return candidate.cost


def _group_key(item) -> tuple:
    """Within one instruction's combo group: combos built from proven
    landmark intermediates first, then cheapest."""
    non_landmark = sum(0 if c.landmark else 1 for c in item[2])
    return (non_landmark, item[1])


# _args_for_uncached's quota group per candidate kind (default: other).
_GROUP = {"op": 0, "swizzle": 1}


def _node_kind(node: SNode) -> str:
    if isinstance(node, (SSlice, SConcat)):
        return "view"
    if isinstance(node, SSwizzle):
        return "swizzle"
    if isinstance(node, (SInput, SConstant)):
        return "leaf"
    return "op"


def _combinations(pools, frontier_depth):
    """Cartesian product requiring at least one arg from the newest round."""
    for combo in itertools.product(*pools):
        if frontier_depth > 0 and all(c.depth < frontier_depth for c in combo):
            continue
        yield combo


# ----------------------------------------------------------------------
# The CEGIS driver
# ----------------------------------------------------------------------


def synthesize(
    spec: hir.HExpr,
    grammar: Grammar,
    options: CegisOptions | None = None,
    cache: MemoCache | None = None,
    dictionary=None,
    rules=None,
) -> SynthesisResult:
    """Compile one Halide IR window to a target program (Algorithm 2).

    ``dictionary`` is accepted and ignored: ``bench_e2e/nearmiss.py``
    still passes it.  ``rules`` is an
    optional :class:`~repro.synthesis.rules.RuleBook` consulted on every exact
    cache miss: a verified rule match returns a solver-free program
    (``stats.verified == "rule"``), and can even rescue a window the
    negative cache remembers as failed — a rule distilled elsewhere may
    cover a shape this process once timed out on.
    """
    options = options or CegisOptions()
    start = time.monotonic()

    def rule_result(program: SNode) -> SynthesisResult:
        cost = grammar.cost_model.cost(program)
        stats = SynthStats(
            seconds=time.monotonic() - start, verified="rule"
        )
        if cache is not None:
            cache.store(spec, grammar.isa, program, cost)
        return SynthesisResult(program, cost, stats, spec)

    if cache is not None:
        # Declare this run's budget so negative-cache entries are tagged
        # with (and filtered by) the budget they were established under.
        cache.set_budget(options.timeout_seconds)
        if cache.lookup_failure(spec, grammar.isa):
            if rules is not None:
                served = rules.match(spec, grammar.isa)
                if served is not None:
                    # Storing the success clears the stale failure entry.
                    return rule_result(served)
            raise SynthesisFailure("window previously failed (cached)")
        hit = cache.lookup(spec, grammar.isa)
        if hit is not None:
            stats = SynthStats(
                seconds=time.monotonic() - start, cache_hit=True
            )
            return SynthesisResult(hit.program, hit.cost, stats, spec)

    if rules is not None:
        served = rules.match(spec, grammar.isa)
        if served is not None:
            return rule_result(served)

    try:
        result = _synthesize_uncached(spec, grammar, options, start)
    except SynthesisFailure:
        if cache is not None:
            cache.store_failure(spec, grammar.isa)
        raise

    if cache is not None:
        cache.store(spec, grammar.isa, result.program, result.cost)
    return result


def _synthesize_uncached(
    spec: hir.HExpr,
    grammar: Grammar,
    options: CegisOptions,
    start: float,
) -> SynthesisResult:
    """The scaling ladder around one lane-wise search (no cache)."""
    deadline = start + options.timeout_seconds
    factor = options.scale_factor
    spec_scaled = None
    while factor > 1:
        spec_scaled = scale_spec(spec, factor)
        if spec_scaled is not None and spec_scaled.type.lanes >= 2:
            break
        factor //= 2
        spec_scaled = None
    if spec_scaled is None:
        factor = 1
        spec_scaled = spec

    try:
        return _lanewise_synthesis(
            spec, spec_scaled, factor, grammar, options, deadline, start
        )
    except SynthesisFailure:
        if factor == 1:
            raise
        # Algorithm 2 line 26: retry without scaling.
        return _lanewise_synthesis(
            spec, spec, 1, grammar, options, deadline, start
        )


def _lanewise_synthesis(
    spec: hir.HExpr,
    spec_scaled: hir.HExpr,
    factor: int,
    grammar: Grammar,
    options: CegisOptions,
    deadline: float,
    start: float,
) -> SynthesisResult:
    rng = random.Random(SEED)
    checker = EquivalenceChecker(
        seed=SEED,
        max_conflicts=VERIFY_CONFLICTS,
        # Multiply-heavy windows produce CNF beyond this solver's budget;
        # larger terms go straight to the randomized battery.  Wrong
        # candidates are refuted by a cheap program-level fuzz pass first,
        # so the term-level battery can stay small.
        sat_node_limit=1_500,
        probabilistic_samples=96,
        # One solver context per spec: the spec circuit is blasted once
        # and learned clauses carry over between candidate queries.
        incremental=True,
    )
    enumerator = _Enumerator(grammar, spec_scaled, rng, deadline, factor)
    stats = SynthStats(grammar_size=grammar.size(), scale_factor=factor)
    failing_lanes: set[int] = {0}  # line 5
    for _ in range(2):  # line 4: two seed inputs
        enumerator.add_env(enumerator.random_env())
    enumerator.seed_pool()

    perf = global_counters()
    with phase_timer("verify"):
        packed_spec = hir.compile_packed(spec_scaled)
    if packed_spec is None:
        perf.cegis_specs_declined += 1
    else:
        perf.cegis_specs_compiled += 1

    spec_term = hir.to_term(spec_scaled)
    # Prime: blast the spec first so its Tseitin variables occupy the
    # lowest indices.  The branching heap breaks activity ties by lowest
    # index, so this layout fixes the SAT search trajectory.  The lane
    # width lets the SAT rung prove one lane per symmetry class.
    checker.prime(spec_term, spec_scaled.type.elem_width)
    rejected: set[int] = set()

    while True:
        stats.iterations += 1
        solution = None
        while solution is None:
            matches = [
                c
                for c in enumerator.matching_candidates(
                    failing_lanes, options.lanewise
                )
                if id(c) not in rejected
            ]
            if matches:
                solution = matches[0]  # line 9: min-cost satisfying candidate
                break
            if enumerator.depth >= options.max_depth:
                raise SynthesisFailure(
                    f"no solution within depth {options.max_depth} "
                    f"(grammar size {grammar.size()})"
                )
            enumerator.grow()  # line 11: increment grammar depth
            stats.depth_reached = enumerator.depth

        # Cheap refutation first: program-level evaluation is much faster
        # than term evaluation, and wrong candidates rarely survive it.
        with phase_timer("verify"):
            refuting_env = _fuzz_refute(
                solution.node, spec_scaled, packed_spec, enumerator, 96
            )
        if refuting_env is not None:
            lane = _first_failing_lane(solution.node, spec_scaled, refuting_env)
            enumerator.add_env(refuting_env)
            failing_lanes.add(lane)
            continue
        # Line 15: verify symbolically over all lanes.
        candidate_term = program_to_term(solution.node)
        try:
            with phase_timer("verify"):
                verdict = checker.check_equivalence(candidate_term, spec_term)
        except SolverTimeout:
            verdict = None
        if verdict is not None and verdict.equivalent:
            stats.verified = verdict.method
            break
        if verdict is None:
            # Conflict budget exceeded: extended fuzz battery as fallback.
            ok = _fuzz_equal(solution.node, spec_scaled, enumerator, 256)
            if ok:
                stats.verified = "fuzz-battery"
                break
            rejected.add(id(solution))
            continue
        # Lines 16-20: record the counterexample and its failing lane.
        cex = dict(verdict.counterexample)
        for name, load_type in spec_scaled.loads().items():
            cex.setdefault(name, BitVector(0, load_type.bits))
        lane = _first_failing_lane(solution.node, spec_scaled, cex)
        enumerator.add_env(cex)
        failing_lanes.add(lane)

    # Lines 23-25: scale back up and verify at full width.  A complete
    # scaled verdict may already prove the full-width pair; otherwise
    # (and after any random verdict) sample it.  A whole-pair exhaustive
    # verdict proves no lane class, so it samples too.
    full = scale_up_program(solution.node, factor)
    if full is None:
        raise SynthesisFailure("scaled-up solution failed full-width check")
    if factor > 1:
        with phase_timer("verify"):
            proved = stats.verified in ("structural", "exhaustive", "sat") and (
                _proves_full_width(full, spec, checker)
            )
        if proved:
            perf.full_width_proved += 1
        else:
            perf.full_width_sampled += 1
            _check_full_width(full, spec, rng, FULL_WIDTH_TRIALS)

    stats.seconds = time.monotonic() - start
    stats.candidates = enumerator.total_candidates
    cost_model = grammar.cost_model
    return SynthesisResult(full, cost_model.cost(full), stats, spec)


def _first_failing_lane(node: SNode, spec: hir.HExpr, env) -> int:
    got = Vector(evaluate_program(node, env), spec.type.elem_width)
    want = Vector(hir.interpret(spec, env), spec.type.elem_width)
    for lane in range(want.num_elems):
        if got.elem(lane).value != want.elem(lane).value:
            return lane
    return 0


def _fuzz_equal(node: SNode, spec: hir.HExpr, enumerator: _Enumerator, trials: int) -> bool:
    """The fuzz-battery rung.  Its yes accepts a program, so it runs on
    the interpreter alone: the compiled evaluator cannot vouch for
    itself."""
    for _ in range(trials):
        env = enumerator.random_env()
        if evaluate_program(node, env).value != hir.interpret(spec, env).value:
            return False
    return True


def _fuzz_refute(
    node: SNode,
    spec: hir.HExpr,
    packed_spec: Callable[[list[int]], int] | None,
    enumerator: _Enumerator,
    trials: int,
):
    """Return an input on which the candidate differs from the spec.

    Refutation runs on compiled forms: the candidate on the appliers the
    enumerator uses, the spec as :func:`hir.compile_packed` built it once
    per search (None when it declined), both on packed registers.  A trial
    on which they agree is skipped.  One on which they disagree, or either
    cannot evaluate, is decided by the interpreters, so only an input the
    interpreters refute is returned."""
    try:
        run = make_packed_program(node)
    except Exception:
        run = None
    names = [name for name, _bits in enumerator.loads]
    for _ in range(trials):
        values = enumerator.random_loads()
        registers = dict(zip(names, values))
        if run is not None and packed_spec is not None:
            try:
                if run(registers) == packed_spec(values):
                    continue
            except Exception:
                pass
        env = enumerator.boxed(values)
        want = hir.interpret(spec, env).value
        if run is not None:
            try:
                if run(registers) == want:
                    continue
            except Exception:
                pass
        if evaluate_program(node, env).value != want:
            return env
    return None


def _proves_full_width(
    node: SNode, spec: hir.HExpr, checker: EquivalenceChecker
) -> bool:
    """True when the full-width pair is identical after simplification,
    or every one of its lane classes was proved at the scaled width.
    Runs no solver query; a lowering error is left to the sampler."""
    try:
        node_term, spec_term = program_to_term(node), hir.to_term(spec)
    except Exception:
        return False
    return checker.proves(node_term, spec_term)


def _check_full_width(node: SNode, spec: hir.HExpr, rng, trials: int) -> None:
    """Check the scaled-up program against the full-width spec with the
    stored-program check; raise :class:`SynthesisFailure` with its
    reason when it fails."""
    reason = check_stored_program(node, spec, rng, trials)
    if reason is not None:
        raise SynthesisFailure(
            f"scaled-up solution failed full-width check: {reason}"
        )
