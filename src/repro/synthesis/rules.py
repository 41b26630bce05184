"""Verified rewrite rules distilled from the synthesis cache.

The other serving tiers (L1 results, L2 window cache, packs) all
require an *exact* ``canonical_key`` hit: a window that differs only in a constant or a lane count pays the
full CEGIS price.  This module closes that gap by turning the cache into
a generated compiler backend:

* The **offline distiller** (:func:`distill_rules`) anti-unifies cached
  programs that share a spec *shape* — the canonical key with constant
  values abstracted and lane counts normalized to the smallest legal
  scale — into parameterized selection patterns whose constants are
  typed :class:`~repro.synthesis.program.SHole` leaves.
* The **verifier** (:func:`verify_rule`) checks each candidate rule once
  over its symbolic hole domain: a structural + concrete-sample
  pre-screen (:func:`~repro.synthesis.cache.check_stored_program`), then
  the existing SMT equivalence ladder over a window whose hole
  constants are replaced by :class:`~repro.halide.ir.HBroadcast` scalars
  sharing the template holes' SMT variables.  Only rules the checker
  proves equivalent survive.
* The **online matcher** (:meth:`RuleBook.match`) runs ahead of CEGIS:
  normalize the incoming window, look up its abstract key, bind hole
  values from the window's own constants (guarded by immediate range and
  lane-divisibility checks), instantiate, scale back up, and accept only
  after a seeded concrete spot-check (the same
  :func:`~repro.synthesis.cache.check_stored_program` the persistent
  cache runs on its hits) — the standard CEGIS applies to its own
  scaled-up programs.

Soundness: every persisted rule passed the checker's ladder at base
scale over its entire hole domain.  That verdict is a proof when it is
``structural``, ``exhaustive`` or ``sat``, and then hole instantiation
is exact.  :func:`verify_rule` also admits a ``probabilistic`` verdict,
the ladder's seeded random battery for a pair its complete rungs
decline (a wide multiply, say): such a rule is tested over its hole
domain, not proved.  The lane scale-up step is (like CEGIS's own
scaling ladder) re-validated concretely per match.  The rulebook is
fingerprinted like the cache it was distilled from and stored beside it
as ``rules.json``.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.halide import ir as hir
from repro.perf import global_counters
from repro.smt.solver import EquivalenceChecker
from repro.synthesis.cache import (
    KeyParseError,
    _appearance_order,
    _rename,
    abstract_key,
    canonical_key,
    check_stored_program,
    const_slots,
    parse_window,
)
from repro.synthesis.program import (
    SConstant,
    SHole,
    SNode,
    SOp,
    map_program,
    program_to_term,
)
from repro.synthesis.scale import (
    normalize_factor,
    scale_down_program,
    scale_spec,
    scale_up_program,
)
from repro.synthesis.serialize import (
    SerializeError,
    snode_from_obj,
    snode_to_obj,
)

# Bump when the on-disk rulebook encoding changes shape.  Deliberately
# independent of SERIALIZE_VERSION: holes never appear in cache entries.
RULES_VERSION = 1
RULES_FILENAME = "rules.json"

# Hole names are reserved: they become SMT variable names shared between
# the template lowering and the window lowering, so they must never
# collide with the positional input names (``in0``...).
_HOLE_PREFIX = "__h"
_MATCH_SEED = 0x52554C45  # "RULE"

# Concrete trials run by check_stored_program before a program is
# trusted: the matcher's gate on a scaled-up instantiation (the kind of
# check CEGIS's full-scale fuzz applies after its own scale-up), the
# distiller's screen of each cached entry it generalises, and the
# verifier's screen of each hole assignment.
MATCH_CHECK_TRIALS = 12
DISTILL_CHECK_TRIALS = 4
VERIFY_CHECK_TRIALS = 3


# ----------------------------------------------------------------------
# Template manipulation
# ----------------------------------------------------------------------


def instantiate(node: SNode, values: Mapping[str, int]) -> SNode:
    """Substitute hole values, turning a template into a runnable program."""

    def fill(n: SNode) -> SNode:
        if isinstance(n, SHole):
            return SConstant(values[n.name], n.lanes, n.elem_width)
        return n

    return map_program(node, fill)


def normalize_program(node: SNode) -> SNode:
    """Canonicalize the two encodings of "full scale" on SOp nodes.

    A program synthesized unscaled carries ``scaled_values`` equal to the
    member's own vector; one that was scaled up carries None.  Both mean
    the same thing — normalize to None so structural comparisons
    (grouping, bit-identity audits) cannot be fooled.
    """

    def unscale(n: SNode) -> SNode:
        if (
            isinstance(n, SOp)
            and n.scaled_values is not None
            and tuple(n.scaled_values) == tuple(n.binding.member.values())
        ):
            return replace(n, scaled_values=None)
        return n

    return map_program(node, unscale)


def program_signature(node: SNode) -> str:
    """A scale-encoding-insensitive structural identity for a program."""
    return json.dumps(snode_to_obj(normalize_program(node)), sort_keys=True)


def _mask_consts(obj: Any) -> Any:
    if isinstance(obj, dict):
        masked = {k: _mask_consts(v) for k, v in obj.items()}
        if obj.get("kind") == "const":
            masked["value"] = "?"
        return masked
    if isinstance(obj, list):
        return [_mask_consts(v) for v in obj]
    return obj


def _skeleton_signature(node: SNode) -> str:
    """The program's structure with constant values abstracted away."""
    return json.dumps(
        _mask_consts(snode_to_obj(normalize_program(node))), sort_keys=True
    )


def _program_consts(node: SNode) -> list[SConstant]:
    """Every SConstant, left to right: the order :func:`_replace_consts`
    numbers them in."""
    found: list[SConstant] = []

    def visit(n: SNode) -> SNode:
        if isinstance(n, SConstant):
            found.append(n)
        return n

    map_program(node, visit)
    return found


def _replace_consts(node: SNode, replacements: Mapping[int, SNode]) -> SNode:
    """Rebuild a program with the i-th constant (left to right) replaced
    per ``replacements``."""
    counter = 0

    def swap(n: SNode) -> SNode:
        nonlocal counter
        if not isinstance(n, SConstant):
            return n
        index = counter
        counter += 1
        return replacements.get(index, n)

    return map_program(node, swap)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


@dataclass
class Rule:
    """One verified selection pattern.

    ``key`` is the abstract canonical key of the *normalized* window;
    ``slots`` assigns each constant position in that key either a hole
    name or a literal value that must match exactly; ``holes`` lists
    ``(name, elem_width)`` for every distinct hole (the element width is
    the immediate-range guard); ``template`` is the program at base
    scale with :class:`SHole` leaves and positional input names.
    """

    key: str
    isa: str
    slots: tuple[tuple[str, Any], ...]
    holes: tuple[tuple[str, int], ...]
    template: SNode
    cost: float
    members: int = 1
    verified: str = ""

    def to_obj(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "isa": self.isa,
            "slots": [list(slot) for slot in self.slots],
            "holes": [list(hole) for hole in self.holes],
            "template": snode_to_obj(self.template),
            "cost": self.cost,
            "members": self.members,
            "verified": self.verified,
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any], dictionary) -> "Rule":
        return cls(
            key=obj["key"],
            isa=obj["isa"],
            slots=tuple((kind, value) for kind, value in obj["slots"]),
            holes=tuple((name, int(ew)) for name, ew in obj["holes"]),
            template=snode_from_obj(obj["template"], dictionary),
            cost=float(obj["cost"]),
            members=int(obj.get("members", 1)),
            verified=obj.get("verified", ""),
        )


def rule_window(rule: Rule, hole_factory) -> hir.HExpr:
    """The rule's window with holes built by ``hole_factory(name, lanes, ew)``."""

    def hook(index, value, lanes, ew):
        kind, payload = rule.slots[index]
        if kind == "lit":
            return hir.HConst(payload, lanes, ew)
        return hole_factory(payload, lanes, ew)

    _isa, expr = parse_window(rule.key, hook)
    return expr


def verify_rule(
    rule: Rule,
    checker: EquivalenceChecker | None = None,
    seed: int = 0,
    samples: int = 16,
) -> tuple[bool, str]:
    """Decide whether a candidate rule is sound over its whole hole domain.

    Pre-screen first: boundary and random hole assignments are
    instantiated concretely and put through
    :func:`~repro.synthesis.cache.check_stored_program` (structure, then
    :data:`VERIFY_CHECK_TRIALS` random inputs against the concrete window
    semantics) — cheap rejection for the common unsound candidate.
    Survivors face the SMT ladder once, on a window whose hole constants
    are broadcast *variables* sharing the template holes' SMT names, so
    one equivalence query covers every instantiation.
    """
    rng = random.Random(seed)
    try:
        symbolic = rule_window(
            rule, lambda name, lanes, ew: hir.HBroadcast(name, lanes, ew)
        )
    except KeyParseError as exc:
        return False, f"parse:{exc}"

    assignments: list[dict[str, int]] = []
    if rule.holes:
        assignments.append({name: 0 for name, _ew in rule.holes})
        assignments.append({name: (1 << ew) - 1 for name, ew in rule.holes})
        assignments.append({name: 1 << (ew - 1) for name, ew in rule.holes})
        for _ in range(samples):
            assignments.append(
                {name: rng.getrandbits(ew) for name, ew in rule.holes}
            )
    else:
        assignments.append({})

    for values in assignments:
        try:
            program = instantiate(rule.template, values)
            window = rule_window(
                rule, lambda name, lanes, ew: hir.HConst(values[name], lanes, ew)
            )
        except Exception as exc:  # noqa: BLE001 - any failure rejects the rule
            return False, f"error:{type(exc).__name__}"
        problem = check_stored_program(program, window, rng, VERIFY_CHECK_TRIALS)
        if problem is not None:
            return False, f"fuzz:{problem}"

    if checker is None:
        checker = EquivalenceChecker(
            seed=seed, max_conflicts=8_000, sat_node_limit=1_500
        )
    try:
        verdict = checker.check_equivalence(
            program_to_term(rule.template), hir.to_term(symbolic)
        )
    except Exception as exc:  # noqa: BLE001 - solver trouble rejects the rule
        return False, f"error:{type(exc).__name__}"
    if not verdict.equivalent:
        return False, f"smt:{verdict.method}"
    return True, verdict.method


# ----------------------------------------------------------------------
# The rulebook (online matcher + persistence)
# ----------------------------------------------------------------------


class RuleBook:
    """An indexed set of verified rules for one ISA namespace."""

    def __init__(self, isa: str, fingerprint: str = "") -> None:
        self.isa = isa
        self.fingerprint = fingerprint
        self.rules: list[Rule] = []
        self._index: dict[str, list[Rule]] = {}

    def __len__(self) -> int:
        return len(self.rules)

    def add(self, rule: Rule) -> None:
        self.rules.append(rule)
        bucket = self._index.setdefault(rule.key, [])
        bucket.append(rule)
        bucket.sort(key=lambda r: r.cost)

    # -- matching -------------------------------------------------------

    def match(
        self, spec: hir.HExpr, isa: str, rng: random.Random | None = None
    ) -> SNode | None:
        """Serve a program for ``spec`` from the rulebook, or None.

        Counts ``rule_matches`` / ``rule_misses`` on the global perf
        counters; any internal error is a miss, never a crash — the
        caller falls back to synthesis.
        """
        counters = global_counters()
        try:
            program = self._match(
                spec, isa, rng or random.Random(_MATCH_SEED)
            )
        except Exception:  # noqa: BLE001 - matching is best-effort
            program = None
        if program is None:
            counters.rule_misses += 1
            return None
        counters.rule_matches += 1
        return program

    def _match(
        self, spec: hir.HExpr, isa: str, rng: random.Random
    ) -> SNode | None:
        if isa != self.isa or not self.rules:
            return None
        factor = normalize_factor(spec)
        base = spec if factor == 1 else scale_spec(spec, factor)
        if base is None:
            return None
        key = canonical_key(base, isa)
        candidates = self._index.get(abstract_key(key))
        if not candidates:
            return None
        slots = const_slots(key)
        order = _appearance_order(spec)
        mapping = {f"in{i}": name for i, name in enumerate(order)}
        for rule in candidates:
            values = _bind_holes(rule, slots)
            if values is None:
                continue
            try:
                program = instantiate(rule.template, values)
                program = scale_up_program(program, factor)
                if program is None:
                    continue
                program = _rename(program, mapping)
            except Exception:  # noqa: BLE001 - try the next rule
                continue
            if check_stored_program(program, spec, rng, MATCH_CHECK_TRIALS) is None:
                return program
        return None

    # -- persistence ----------------------------------------------------

    def to_obj(self) -> dict[str, Any]:
        return {
            "version": RULES_VERSION,
            "isa": self.isa,
            "fingerprint": self.fingerprint,
            "rules": [rule.to_obj() for rule in self.rules],
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any], dictionary) -> "RuleBook":
        if obj.get("version") != RULES_VERSION:
            raise SerializeError(
                f"unsupported rulebook version {obj.get('version')!r}"
            )
        book = cls(obj.get("isa", ""), obj.get("fingerprint", ""))
        for rule_obj in obj.get("rules", ()):
            try:
                book.add(Rule.from_obj(rule_obj, dictionary))
            except (SerializeError, KeyError, TypeError):
                # A rule referencing an instruction this dictionary no
                # longer has is dropped, not fatal — the fingerprint
                # check upstream makes this a corrupt-file corner only.
                continue
        return book

    def save(self, directory) -> Path:
        from repro.persist import atomic_write

        path = Path(directory) / RULES_FILENAME
        atomic_write(path, json.dumps(self.to_obj(), sort_keys=True))
        return path

    @classmethod
    def load(
        cls, directory, dictionary, expect_fingerprint: str | None = None
    ) -> "RuleBook | None":
        try:
            obj = json.loads((Path(directory) / RULES_FILENAME).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            expect_fingerprint is not None
            and obj.get("fingerprint") != expect_fingerprint
        ):
            return None
        try:
            return cls.from_obj(obj, dictionary)
        except SerializeError:
            return None

    def stats(self) -> dict[str, Any]:
        methods: dict[str, int] = {}
        for rule in self.rules:
            methods[rule.verified or "?"] = methods.get(rule.verified or "?", 0) + 1
        return {
            "isa": self.isa,
            "fingerprint": self.fingerprint,
            "rules": len(self.rules),
            "holes": sum(len(r.holes) for r in self.rules),
            "members": sum(r.members for r in self.rules),
            "shapes": len(self._index),
            "verified_methods": methods,
        }


def _bind_holes(
    rule: Rule, slots: list[tuple[int | None, int, int]]
) -> dict[str, int] | None:
    """Bind hole values from a concrete window's constant slots.

    Guards: literal slots must match exactly, repeated holes must agree,
    and every hole value must fit its element width (immediate-range
    guard; signed or unsigned encodings both pass).
    """
    if len(slots) != len(rule.slots):
        return None
    values: dict[str, int] = {}
    for (value, _lanes, ew), (kind, payload) in zip(slots, rule.slots):
        if value is None:
            return None
        if kind == "lit":
            if value != payload:
                return None
            continue
        if not -(1 << (ew - 1)) <= value < (1 << ew):
            return None
        if payload in values and values[payload] != value:
            return None
        values[payload] = value
    return values


# ----------------------------------------------------------------------
# The offline distiller
# ----------------------------------------------------------------------


@dataclass
class DistillReport:
    """Accounting for one distillation pass."""

    scanned: int = 0
    eligible: int = 0
    candidates: int = 0
    verified: int = 0
    rejected: int = 0
    skipped: dict = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "eligible": self.eligible,
            "candidates": self.candidates,
            "verified": self.verified,
            "rejected": self.rejected,
            "skipped": dict(sorted(self.skipped.items())),
        }


@dataclass
class _Member:
    """One cache entry, normalized to base scale with positional inputs."""

    base_key: str
    program: SNode
    consts: list[int]
    prog_consts: list[SConstant]
    cost: float


def distill_rules(
    entries,
    isa: str,
    fingerprint: str = "",
    seed: int = 7,
    checker: EquivalenceChecker | None = None,
) -> tuple[RuleBook, DistillReport]:
    """Anti-unify cached programs into a verified rulebook.

    ``entries`` iterates ``(canonical_key, CacheEntry)`` pairs (a
    :class:`MemoCache`'s internal table).  Entries are normalized to the
    smallest legal lane scale, grouped by abstract key and program
    skeleton, anti-unified over their constant trajectories, and each
    candidate rule is verified before admission.  Verification failures
    retry with a narrower hole set (only constants that actually varied
    across the group) before giving up.
    """
    counters = global_counters()
    report = DistillReport()
    book = RuleBook(isa, fingerprint)
    rng = random.Random(seed)
    if checker is None:
        checker = EquivalenceChecker(
            seed=seed, max_conflicts=8_000, sat_node_limit=1_500
        )

    # abstract key -> skeleton signature -> members
    groups: dict[str, dict[str, list[_Member]]] = {}
    seen_members: set[tuple[str, str]] = set()
    for key, entry in entries:
        report.scanned += 1
        if not key.startswith(f"{isa}:"):
            report.skip("foreign-isa")
            continue
        try:
            _key_isa, window = parse_window(key)
        except KeyParseError:
            report.skip("unparseable")
            continue
        if any(isinstance(n, hir.HBroadcast) for n in window.walk()):
            # Broadcast-input windows never reach the synthesizer (the
            # compiler rewrites broadcasts to loads first); their cached
            # programs cannot reference the scalar, so skip them.
            report.skip("broadcast-input")
            continue
        mapping = {
            orig: f"in{i}" for i, orig in enumerate(entry.input_order)
        }
        program = _rename(entry.program, mapping)
        factor = normalize_factor(window)
        base_window = window if factor == 1 else scale_spec(window, factor)
        base_program = scale_down_program(program, factor)
        if base_window is None or base_program is None:
            # The spec scales but the program does not (or vice versa):
            # keep the entry at full width — the rule still generalizes
            # over constants, just not lanes.
            factor, base_window, base_program = 1, window, program
        if check_stored_program(
            base_program, base_window, rng, DISTILL_CHECK_TRIALS
        ) is not None:
            report.skip("corrupt")
            continue
        base_key = canonical_key(base_window, isa)
        base_program = normalize_program(base_program)
        signature = (base_key, program_signature(base_program))
        if signature in seen_members:
            # Two lane-multiples of the same entry normalize identically.
            report.skip("duplicate")
            continue
        seen_members.add(signature)
        member = _Member(
            base_key,
            base_program,
            [v for v, _l, _e in const_slots(base_key)],
            _program_consts(base_program),
            entry.cost,
        )
        akey = abstract_key(base_key)
        groups.setdefault(akey, {}).setdefault(
            _skeleton_signature(base_program), []
        ).append(member)
        report.eligible += 1

    seen_rules: set[tuple[str, tuple, str]] = set()
    for akey in sorted(groups):
        slot_meta = const_slots(akey)
        for _skeleton, members in sorted(groups[akey].items()):
            tried: set[tuple] = set()
            for tier in ("all", "varying"):
                plan = _plan_holes(tier, slot_meta, members)
                if plan is None:
                    continue
                slots, holes, replacements = plan
                if slots in tried:
                    continue
                tried.add(slots)
                template = _replace_consts(members[0].program, replacements)
                rule = Rule(
                    key=akey,
                    isa=isa,
                    slots=slots,
                    holes=holes,
                    template=template,
                    cost=min(m.cost for m in members),
                    members=len(members),
                )
                identity = (akey, slots, program_signature(template))
                if identity in seen_rules:
                    continue
                report.candidates += 1
                ok, method = verify_rule(rule, checker=checker, seed=seed)
                if ok:
                    rule.verified = method
                    book.add(rule)
                    seen_rules.add(identity)
                    report.verified += 1
                    counters.rule_distilled += 1
                    break
                report.rejected += 1
                counters.rule_verify_failures += 1
    return book, report


def _plan_holes(
    tier: str,
    slot_meta: list[tuple[int | None, int, int]],
    members: list[_Member],
):
    """Assign each constant slot a hole or a literal for one tier.

    Hole identity is the constant's *trajectory* across the group's
    members (plus its element width): two slots whose values move in
    lockstep share one hole, which is what lets windows like
    ``(x + c) * c`` distill into a single-hole rule.  Tier ``"all"``
    abstracts every slot; tier ``"varying"`` keeps group-invariant slots
    literal (the retry when full abstraction fails verification).
    Returns ``(slots, holes, const_replacements)`` or None when the
    group's program constants cannot be aligned with any hole.
    """
    trajectories = [
        tuple(m.consts[j] for m in members) for j in range(len(slot_meta))
    ]
    hole_names: dict[tuple, str] = {}
    holes: list[tuple[str, int]] = []
    slots: list[tuple[str, Any]] = []
    for j, (_value, _lanes, ew) in enumerate(slot_meta):
        trajectory = trajectories[j]
        if tier == "varying" and len(set(trajectory)) == 1:
            slots.append(("lit", trajectory[0]))
            continue
        hole_key = (trajectory, ew)
        name = hole_names.get(hole_key)
        if name is None:
            name = f"{_HOLE_PREFIX}{len(hole_names)}"
            hole_names[hole_key] = name
            holes.append((name, ew))
        slots.append(("hole", name))

    # Align program constants with holes by their own trajectories.
    replacements: dict[int, SNode] = {}
    const_count = len(members[0].prog_consts)
    if any(len(m.prog_consts) != const_count for m in members):
        return None  # skeleton mismatch; cannot align
    for p in range(const_count):
        node = members[0].prog_consts[p]
        trajectory = tuple(m.prog_consts[p].value for m in members)
        name = hole_names.get((trajectory, node.elem_width))
        if name is not None:
            replacements[p] = SHole(name, node.lanes, node.elem_width)
        elif len(set(trajectory)) > 1:
            # A varying program constant matching no window hole cannot
            # be represented by one template.
            return None
    return tuple(slots), tuple(holes), replacements


# ----------------------------------------------------------------------
# Preloading (daemon workers inherit the parsed book via fork)
# ----------------------------------------------------------------------

_PRELOADED: dict[tuple[str, str | None], "RuleBook | None"] = {}


def load_rulebook(
    directory,
    dictionary,
    expect_fingerprint: str | None = None,
    use_cache: bool = True,
) -> "RuleBook | None":
    """Load (and memoize) the rulebook stored in a cache namespace dir.

    The memo lets the daemon parse the book once in the parent and hand
    it to every forked worker for free; tests use ``use_cache=False`` or
    :func:`clear_preloaded` after re-distilling in-process.
    """
    memo_key = (str(directory), expect_fingerprint)
    if use_cache and memo_key in _PRELOADED:
        return _PRELOADED[memo_key]
    book = RuleBook.load(directory, dictionary, expect_fingerprint)
    if use_cache:
        _PRELOADED[memo_key] = book
    return book


def clear_preloaded() -> None:
    _PRELOADED.clear()
