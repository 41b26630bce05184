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

Soundness: every persisted rule was SMT-verified at base scale over its
entire hole domain, so hole instantiation is always exact; only the lane
scale-up step is (like CEGIS's own scaling ladder) re-validated
concretely per match.  The rulebook is fingerprinted like the cache it
was distilled from and stored beside it as ``rules.json``.
"""

from __future__ import annotations

import json
import random
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.halide import ir as hir
from repro.perf import global_counters
from repro.smt.solver import EquivalenceChecker
from repro.synthesis.cache import (
    _appearance_order,
    _rename,
    canonical_key,
    check_stored_program,
)
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SHole,
    SInput,
    SNode,
    SOp,
    SSlice,
    SSwizzle,
    program_to_term,
)
from repro.synthesis.scale import scale_spec, scaled_member_values
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
# check CEGIS's full-scale fuzz applies after its own scale-up), and the
# distiller's screen of each cached entry it generalises.
MATCH_CHECK_TRIALS = 12
DISTILL_CHECK_TRIALS = 4


class KeyParseError(ValueError):
    """A canonical cache key cannot be reconstructed into a window."""


# ----------------------------------------------------------------------
# Canonical-key parsing and abstraction
# ----------------------------------------------------------------------

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
            if head == "load":
                name, lanes, ew = take(), int(take()), int(take())
                expect(")")
                return hir.HLoad(name, lanes, ew)
            if head == "splat":
                name, lanes, ew = take(), int(take()), int(take())
                expect(")")
                return hir.HBroadcast(name, lanes, ew)
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
    # Attribute order mirrors canonical_key's fixed probe order:
    # ("op", "kind", "start", "lanes", "factor", "new_elem_width",
    # "indices").
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


# ----------------------------------------------------------------------
# Lane normalization (the inverse of the CEGIS scaling ladder)
# ----------------------------------------------------------------------


def normalize_factor(expr: hir.HExpr) -> int:
    """The largest power-of-two lane scale-down that keeps >= 2 lanes.

    Both the distiller and the matcher normalize windows through this,
    so any two lane-multiples of the same base shape land on the same
    rulebook index key.
    """
    factor = 1
    while True:
        doubled = factor * 2
        scaled = scale_spec(expr, doubled)
        if scaled is None or scaled.type.lanes < 2:
            return factor
        factor = doubled


class _CannotScaleDown(Exception):
    pass


def scale_down_program(node: SNode, factor: int) -> SNode | None:
    """Scale a full-width program down by ``factor``; None when illegal.

    The exact inverse of CEGIS's ``_scale_up``: lane counts, output
    widths, and rotate amounts divide; instruction parameter vectors go
    through :func:`scaled_member_values`.  ``_scale_up(result, factor)``
    reproduces the input bit-for-bit (up to the scaled_values-vs-None
    encoding of "full scale"), which is what makes rule-served programs
    identical to the cached originals.
    """
    if factor == 1:
        return node
    try:
        return _scale_down(node, factor)
    except _CannotScaleDown:
        return None


def _scale_down(node: SNode, factor: int) -> SNode:
    if isinstance(node, SInput):
        if node.lanes % factor:
            raise _CannotScaleDown
        return SInput(node.name, node.lanes // factor, node.elem_width)
    if isinstance(node, SConstant):
        if node.lanes % factor:
            raise _CannotScaleDown
        return SConstant(node.value, node.lanes // factor, node.elem_width)
    if isinstance(node, SHole):
        if node.lanes % factor:
            raise _CannotScaleDown
        return SHole(node.name, node.lanes // factor, node.elem_width)
    if isinstance(node, SSlice):
        return SSlice(_scale_down(node.src, factor), node.high)
    if isinstance(node, SConcat):
        return SConcat(
            _scale_down(node.high_part, factor),
            _scale_down(node.low_part, factor),
        )
    if isinstance(node, SSwizzle):
        if node.out_bits % factor:
            raise _CannotScaleDown
        amount = node.amount
        if node.pattern == "rotate_right":
            if amount % factor:
                raise _CannotScaleDown
            amount //= factor
        return SSwizzle(
            node.pattern,
            tuple(_scale_down(a, factor) for a in node.args),
            node.elem_width,
            node.out_bits // factor,
            amount,
        )
    assert isinstance(node, SOp)
    if node.out_bits % factor:
        raise _CannotScaleDown
    if tuple(node.values()) != tuple(node.binding.member.values()):
        # Already partially scaled — cached programs are full-scale, so
        # this only guards against future misuse.
        raise _CannotScaleDown
    scaled = scaled_member_values(node.binding, factor)
    if scaled is None:
        raise _CannotScaleDown
    return SOp(
        node.op,
        node.binding,
        tuple(_scale_down(a, factor) for a in node.args),
        node.imm_values,
        scaled,
        node.out_bits // factor,
    )


class _CannotScaleUp(Exception):
    pass


def scale_match_program(node: SNode, factor: int) -> SNode | None:
    """Scale an instantiated template up by ``factor`` for serving.

    Unlike CEGIS's ``_scale_up`` — which always lands exactly on the
    binding's native width — a rule is stored at its *minimal* lane
    count and may be asked for any multiple of it, so each instruction
    is re-bound to the equivalence-class sibling at the target width
    with the same element width (``_mm_add_epi16`` →
    ``_mm256_add_epi16``).  Targets below every sibling's native width
    are refused rather than served partially scaled: fresh CEGIS emits
    sub-native windows as a slice of a native-width op, and refusing
    keeps rule-served programs bit-identical to what synthesis would
    produce.  None when no sibling covers the target (the caller falls
    back to synthesis).
    """
    if factor == 1:
        return node
    try:
        return _scale_match(node, factor)
    except _CannotScaleUp:
        return None


def _scale_match(node: SNode, factor: int) -> SNode:
    if isinstance(node, SInput):
        return SInput(node.name, node.lanes * factor, node.elem_width)
    if isinstance(node, SConstant):
        return SConstant(node.value, node.lanes * factor, node.elem_width)
    if isinstance(node, SSlice):
        return SSlice(_scale_match(node.src, factor), node.high)
    if isinstance(node, SConcat):
        return SConcat(
            _scale_match(node.high_part, factor),
            _scale_match(node.low_part, factor),
        )
    if isinstance(node, SSwizzle):
        return SSwizzle(
            node.pattern,
            tuple(_scale_match(a, factor) for a in node.args),
            node.elem_width,
            node.out_bits * factor,
            node.amount * factor
            if node.pattern == "rotate_right"
            else node.amount,
        )
    assert isinstance(node, SOp)
    target_bits = node.out_bits * factor
    args = tuple(_scale_match(a, factor) for a in node.args)
    natural = node.binding.spec.output_width
    if target_bits == natural:
        return SOp(
            node.op, node.binding, args, node.imm_values, None, target_bits
        )
    if target_bits < natural:
        raise _CannotScaleUp
    elem = node.binding.spec.attributes.get("elem_width")
    for binding in node.op.bindings:
        if (
            binding.isa == node.binding.isa
            and binding.spec.output_width == target_bits
            and binding.spec.attributes.get("elem_width") == elem
            and binding.member.arg_order == node.binding.member.arg_order
        ):
            return SOp(
                node.op, binding, args, node.imm_values, None, target_bits
            )
    raise _CannotScaleUp


# ----------------------------------------------------------------------
# Template manipulation
# ----------------------------------------------------------------------


def instantiate(node: SNode, values: Mapping[str, int]) -> SNode:
    """Substitute hole values, turning a template into a runnable program."""
    if isinstance(node, SHole):
        return SConstant(values[node.name], node.lanes, node.elem_width)
    if isinstance(node, (SInput, SConstant)):
        return node
    if isinstance(node, SSlice):
        return SSlice(instantiate(node.src, values), node.high)
    if isinstance(node, SConcat):
        return SConcat(
            instantiate(node.high_part, values),
            instantiate(node.low_part, values),
        )
    if isinstance(node, SSwizzle):
        return SSwizzle(
            node.pattern,
            tuple(instantiate(a, values) for a in node.args),
            node.elem_width,
            node.out_bits,
            node.amount,
        )
    assert isinstance(node, SOp)
    return SOp(
        node.op,
        node.binding,
        tuple(instantiate(a, values) for a in node.args),
        node.imm_values,
        node.scaled_values,
        node.out_bits,
    )


def normalize_program(node: SNode) -> SNode:
    """Canonicalize the two encodings of "full scale" on SOp nodes.

    A program synthesized unscaled carries ``scaled_values`` equal to the
    member's own vector; one that went through ``_scale_up`` carries
    None.  Both mean the same thing — normalize to None so structural
    comparisons (grouping, bit-identity audits) cannot be fooled.
    """
    if isinstance(node, (SInput, SConstant, SHole)):
        return node
    if isinstance(node, SSlice):
        return SSlice(normalize_program(node.src), node.high)
    if isinstance(node, SConcat):
        return SConcat(
            normalize_program(node.high_part),
            normalize_program(node.low_part),
        )
    if isinstance(node, SSwizzle):
        return SSwizzle(
            node.pattern,
            tuple(normalize_program(a) for a in node.args),
            node.elem_width,
            node.out_bits,
            node.amount,
        )
    assert isinstance(node, SOp)
    scaled = node.scaled_values
    if scaled is not None and tuple(scaled) == tuple(node.binding.member.values()):
        scaled = None
    return SOp(
        node.op,
        node.binding,
        tuple(normalize_program(a) for a in node.args),
        node.imm_values,
        scaled,
        node.out_bits,
    )


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
    """Every SConstant in deterministic (pre-order, left-to-right) order."""
    found: list[SConstant] = []

    def visit(n: SNode) -> None:
        if isinstance(n, SConstant):
            found.append(n)
        for kid in n.children():
            visit(kid)

    visit(node)
    return found


def _replace_consts(node: SNode, replacements: Mapping[int, SNode]) -> SNode:
    """Rebuild a program with the i-th constant replaced per ``replacements``."""
    counter = 0

    def rebuild(n: SNode) -> SNode:
        nonlocal counter
        if isinstance(n, SConstant):
            index = counter
            counter += 1
            return replacements.get(index, n)
        if isinstance(n, (SInput, SHole)):
            return n
        if isinstance(n, SSlice):
            return SSlice(rebuild(n.src), n.high)
        if isinstance(n, SConcat):
            return SConcat(rebuild(n.high_part), rebuild(n.low_part))
        if isinstance(n, SSwizzle):
            return SSwizzle(
                n.pattern,
                tuple(rebuild(a) for a in n.args),
                n.elem_width,
                n.out_bits,
                n.amount,
            )
        assert isinstance(n, SOp)
        return SOp(
            n.op,
            n.binding,
            tuple(rebuild(a) for a in n.args),
            n.imm_values,
            n.scaled_values,
            n.out_bits,
        )

    return rebuild(node)


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
    envs_per_sample: int = 3,
) -> tuple[bool, str]:
    """Decide whether a candidate rule is sound over its whole hole domain.

    Pre-screen first: boundary and random hole assignments are
    instantiated concretely and put through
    :func:`~repro.synthesis.cache.check_stored_program` (structure, then
    ``envs_per_sample`` random inputs against the concrete window
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
        problem = check_stored_program(program, window, rng, envs_per_sample)
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
                program = scale_match_program(program, factor)
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
        from repro.service.store import atomic_write

        path = Path(directory) / RULES_FILENAME
        atomic_write(path, json.dumps(self.to_obj(), sort_keys=True))
        return path

    @classmethod
    def load(
        cls, directory, dictionary, expect_fingerprint: str | None = None
    ) -> "RuleBook | None":
        path = Path(directory) / RULES_FILENAME
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
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
