"""Tests for the abstract-interpretation engine (repro.analysis.absint),
and for the concrete check every stored program passes before it is
served (repro.synthesis.cache.check_stored_program).

The centerpiece is the soundness property: for well over a thousand
seeded random (expression, input) pairs drawn from the shipped spec
corpora, the abstract result must contain the concrete interpreter's
output — under top inputs, under the hull of the sampled inputs, and
under singleton (constant) inputs.  A companion bug-injection suite
mutates individual transfer functions and requires the same property to
catch every mutation, which is what makes the soundness test a real
tripwire rather than a tautology.
"""

import random

import pytest

from repro.analysis import absint
from repro.analysis.absint import (
    abstract_semantics,
    const,
    from_ints,
    make,
    pack_lanes,
    provably_disagrees,
    top,
)
from repro.autollvm import build_dictionary
from repro.halide import ir as hir
from repro.hydride_ir.ast import BvBinOp, BvCast, BvCmp, BvUnOp
from repro.hydride_ir.interp import (
    SemanticsError,
    interpret,
    resolved_input_widths,
)
from repro.isa.fuzz import _random_inputs, derive_seed
from repro.isa.registry import load_isa
from repro.synthesis.cache import (
    CacheEntry,
    canonical_key,
    check_stored_program,
)
from repro.synthesis.program import SConstant, SInput, SOp

SEED = 20240809
PAIR_TARGET = 1000


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86", "hvx", "arm"))


@pytest.fixture(scope="module")
def corpus():
    """Every parsed semantics function across the shipped ISA corpora."""
    specs = []
    for isa in ("x86", "hvx", "arm"):
        loaded = load_isa(isa)
        for name in sorted(loaded.semantics):
            specs.append((isa, name, loaded.semantics[name]))
    return specs


# ----------------------------------------------------------------------
# Lattice unit tests
# ----------------------------------------------------------------------


class TestLattice:
    def test_const_is_fully_known(self):
        v = const(0b1010, 8)
        assert v.is_const() and v.const_value() == 0b1010
        assert v.ones == 0b1010
        assert v.zeros == 0xFF ^ 0b1010
        assert v.contains(0b1010) and not v.contains(0b1011)

    def test_top_contains_everything(self):
        v = top(8)
        assert all(v.contains(x) for x in range(256))

    def test_make_normalises_known_bits_into_ranges(self):
        # Sign bit known one => unsigned range starts at 128 and the
        # signed range is negative.
        v = make(8, ones=0x80)
        assert v.umin >= 0x80
        assert v.smax < 0

    def test_join_covers_both_sides(self):
        a, b = const(3, 8), const(12, 8)
        j = a.join(b)
        assert j.contains(3) and j.contains(12)
        # Common known bits survive: both are < 16.
        assert j.zeros & 0xF0 == 0xF0

    def test_join_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            const(1, 8).join(const(1, 16))

    def test_from_ints_is_a_hull(self):
        values = [7, 12, 200]
        hull = from_ints(values, 8)
        assert all(hull.contains(v) for v in values)

    def test_provably_disagrees_on_disjoint_ranges(self):
        assert provably_disagrees(from_ints([0, 10], 8), from_ints([20, 30], 8))
        assert provably_disagrees(from_ints([20, 30], 8), from_ints([0, 10], 8))

    def test_provably_disagrees_on_bit_conflict(self):
        a = make(8, ones=0x01)
        b = make(8, zeros=0x01)
        assert provably_disagrees(a, b)

    def test_no_disagreement_when_overlapping(self):
        # 8 is representable by both hulls, so no proof of disagreement.
        assert not provably_disagrees(from_ints([0, 10], 8), const(8, 8))
        assert not provably_disagrees(from_ints([8, 30], 8), from_ints([0, 10], 8))
        assert not provably_disagrees(top(8), const(3, 8))

    def test_lane_round_trip(self):
        lanes = [const(1, 8), const(2, 8), const(255, 8), top(8)]
        packed = pack_lanes(lanes)
        assert packed.width == 32
        assert packed.contains(0x00FF0201)
        assert packed.contains(0xAB_FF0201)
        assert not packed.contains(0x00FF0202)


# ----------------------------------------------------------------------
# The soundness property (>= 1000 seeded (expression, input) pairs)
# ----------------------------------------------------------------------


def _abstract_regimes(func, envs):
    """Abstract results for top, hull and singleton input regimes.

    Immediates are held at their ``envs[0]`` values in every regime (and
    in the concrete runs) so index/width expressions agree between the
    abstract and concrete evaluations.
    """
    widths = resolved_input_widths(func, dict(func.params))
    imm_names = {inp.name for inp in func.inputs if inp.is_immediate}
    imm_params = dict(func.params)
    imm_inputs = {}
    for name in imm_names & set(widths):
        value = envs[0][name].value
        imm_params[name] = value
        if widths[name] > 0:
            imm_inputs[name] = const(value, widths[name])
    variable = {
        name: width
        for name, width in widths.items()
        if width > 0 and name not in imm_names
    }

    regimes = []
    regimes.append(
        ("top", abstract_semantics(func, inputs=imm_inputs, params=imm_params))
    )
    hull = dict(imm_inputs)
    for name, width in variable.items():
        hull[name] = from_ints([env[name].value for env in envs], width)
    regimes.append(
        ("hull", abstract_semantics(func, inputs=hull, params=imm_params))
    )
    for index, env in enumerate(envs):
        point = dict(imm_inputs)
        for name, width in variable.items():
            point[name] = const(env[name].value, width)
        regimes.append(
            (
                f"point{index}",
                abstract_semantics(func, inputs=point, params=imm_params),
            )
        )
    return regimes


def _sample_envs(func, rng, trials=2):
    widths = resolved_input_widths(func, dict(func.params))
    envs = [_random_inputs(widths, rng) for _ in range(trials)]
    imm_names = {inp.name for inp in func.inputs if inp.is_immediate}
    # Immediates are pinned to the first sample across all trials.
    for env in envs[1:]:
        for name in imm_names & set(env):
            env[name] = envs[0][name]
    return envs


class TestSoundnessProperty:
    def test_abstract_over_approximates_concrete(self, corpus):
        pairs = 0
        skipped = 0
        violations = []
        for isa, name, func in corpus:
            rng = random.Random(derive_seed(SEED, name))
            try:
                envs = _sample_envs(func, rng)
                outs = [interpret(func, env) for env in envs]
                regimes = _abstract_regimes(func, envs)
            except (SemanticsError, KeyError, ZeroDivisionError):
                skipped += 1
                continue
            for regime, abstract in regimes:
                point_index = (
                    int(regime[5:]) if regime.startswith("point") else None
                )
                for index, out in enumerate(outs):
                    if point_index is not None and index != point_index:
                        continue
                    pairs += 1
                    if abstract.width != out.width or not abstract.contains(
                        out.value
                    ):
                        violations.append((isa, name, regime))
        assert pairs >= PAIR_TARGET, (pairs, skipped)
        # A few corpus stragglers may use shapes the interpreter itself
        # rejects; anything beyond that means lost coverage.
        assert skipped <= len(corpus) // 10, skipped
        assert violations == [], violations[:20]


# ----------------------------------------------------------------------
# Bug injection: mutated transfers must be caught by the property
# ----------------------------------------------------------------------


def _specs_using(corpus, node_type, op_name, limit=12):
    found = []
    for _isa, _name, func in corpus:
        for node in func.body.walk():
            if isinstance(node, node_type) and node.op == op_name:
                found.append(func)
                break
        if len(found) >= limit:
            break
    return found


def _property_catches(corpus, node_type, op_name):
    """True when the singleton-input soundness check flags a violation."""
    specs = _specs_using(corpus, node_type, op_name)
    assert specs, f"no corpus spec exercises {op_name!r}"
    for func in specs:
        rng = random.Random(derive_seed(SEED + 1, func.name))
        for _ in range(4):
            try:
                envs = _sample_envs(func, rng, trials=1)
                out = interpret(func, envs[0])
                regimes = _abstract_regimes(func, envs)
            except (SemanticsError, KeyError, ZeroDivisionError):
                continue
            for _regime, abstract in regimes:
                if abstract.width != out.width or not abstract.contains(
                    out.value
                ):
                    return True
    return False


MUTATIONS = [
    # (table, key, node type, mutant) — each claims precision the real
    # operation does not have, or silently computes the wrong function.
    ("BINARY_TRANSFERS", "bvadd", BvBinOp, lambda a, b: const(0, a.width)),
    (
        "BINARY_TRANSFERS",
        "bvand",
        BvBinOp,
        # 'and' using 'or's known-ones: claims bits set that and clears.
        lambda a, b: make(a.width, zeros=a.zeros & b.zeros, ones=a.ones | b.ones),
    ),
    ("BINARY_TRANSFERS", "bvshl", BvBinOp, lambda a, b: a),
    ("UNARY_TRANSFERS", "bvnot", BvUnOp, lambda a: a),
    ("CMP_TRANSFERS", "bveq", BvCmp, lambda a, b: const(1, 1)),
    ("CAST_TRANSFERS", "zext", BvCast, lambda a, w: const(0, w)),
]


class TestMutationInjection:
    @pytest.mark.parametrize(
        "table,key,node_type,mutant",
        MUTATIONS,
        ids=[f"{t}:{k}" for t, k, _n, _m in MUTATIONS],
    )
    def test_soundness_check_catches_mutation(
        self, corpus, monkeypatch, table, key, node_type, mutant
    ):
        transfers = getattr(absint, table)
        assert key in transfers
        monkeypatch.setitem(transfers, key, mutant)
        assert _property_catches(corpus, node_type, key), (
            f"mutated {table}[{key!r}] survived the soundness property"
        )

    def test_unmutated_baseline_is_clean(self, corpus):
        # The detector itself must not fire on the real transfers for the
        # same specs it uses to catch mutations.
        for _table, key, node_type, _mutant in MUTATIONS:
            assert not _property_catches(corpus, node_type, key), key


# ----------------------------------------------------------------------
# The stored-program check (structure, then concrete trials)
# ----------------------------------------------------------------------


def _check(spec, program, trials=4):
    return check_stored_program(program, spec, random.Random(0), trials)


def _add_op(dictionary, args):
    """``_mm_add_epi16`` applied to ``args`` (128-bit result)."""
    name = "_mm_add_epi16"
    op = dictionary.by_target_instruction[name]
    binding = next(b for b in op.bindings if b.spec.name == name)
    return SOp(op, binding, tuple(args), (), None, 128)


class TestScreenCachedProgram:
    def test_identity_program_passes(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert _check(spec, SInput("ld0", 8, 16)) is None

    def test_unknown_input_flagged(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert "unknown input" in _check(spec, SInput("ghost", 8, 16))

    def test_width_mismatch_flagged(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert "width" in _check(spec, SInput("ld0", 4, 16))

    def test_output_width_mismatch_flagged(self):
        spec = hir.HLoad("ld0", 8, 16)
        assert "output width" in _check(spec, SConstant(0, 4, 16))

    def test_provably_wrong_constant_flagged(self):
        spec = hir.HConst(3, 8, 16)
        assert "differs" in _check(spec, SConstant(5, 8, 16))

    def test_matching_constant_passes(self):
        spec = hir.HConst(3, 8, 16)
        assert _check(spec, SConstant(3, 8, 16)) is None

    def test_structural_failures_draw_no_randomness(self):
        # Callers share one RNG stream across candidates; a structural
        # rejection must leave that stream where it was.
        rng = random.Random(5)
        spec = hir.HLoad("ld0", 8, 16)
        assert check_stored_program(SInput("ghost", 8, 16), spec, rng, 3)
        assert rng.random() == random.Random(5).random()



class TestPersistentCacheScreen:
    def _window(self):
        return hir.HBin(
            "add", hir.HLoad("ld0", 8, 16), hir.HLoad("ld1", 8, 16)
        )

    def _served(self, tmp_path, dictionary, program):
        """Store ``program`` for the add window, then look it up."""
        from repro.service.store import PersistentCache, _key_hash

        spec = self._window()
        key = canonical_key(spec, "x86")
        cache = PersistentCache(tmp_path, "x86", dictionary)
        cache.put_entry(key, CacheEntry(program, 1.0, ["ld0", "ld1"]))
        entry_file = cache.dir / f"e-{_key_hash(key)}.json"
        assert entry_file.exists()
        return cache.lookup(spec, "x86"), cache, key, entry_file

    def _assert_evicted(self, tmp_path, dictionary, program):
        served, cache, key, entry_file = self._served(
            tmp_path, dictionary, program
        )
        assert served is None
        counters = cache.counters()
        assert counters["screened"] == 1
        assert counters["screen_failures"] == 1
        assert counters["hits"] == 0 and counters["misses"] == 1
        assert not entry_file.exists()
        assert key not in cache._entries

    def test_corrupt_entry_evicted_on_lookup(self, tmp_path, dictionary):
        # A program whose input width contradicts the specification —
        # the shape a bit-rotted entry file takes after deserialization.
        self._assert_evicted(tmp_path, dictionary, SInput("ld0", 4, 16))

    def test_plausible_entry_evicted_on_lookup(self, tmp_path, dictionary):
        # Well-typed, reads only the spec's loads, and equal to ``add``
        # on some inputs (ld1 == 0): only a concrete input refutes it.
        self._assert_evicted(tmp_path, dictionary, SInput("ld0", 8, 16))

    def test_same_shape_wrong_op_evicted_on_lookup(self, tmp_path, dictionary):
        name = "_mm_sub_epi16"
        op = dictionary.by_target_instruction[name]
        binding = next(b for b in op.bindings if b.spec.name == name)
        sub = SOp(
            op, binding, (SInput("ld0", 8, 16), SInput("ld1", 8, 16)),
            (), None, 128,
        )
        self._assert_evicted(tmp_path, dictionary, sub)

    def test_raising_entry_evicted_on_lookup(self, tmp_path, dictionary):
        # One operand lost: evaluating it raises, which is a failed
        # check, never a served hit.
        truncated = _add_op(dictionary, [SInput("ld0", 8, 16)])
        self._assert_evicted(tmp_path, dictionary, truncated)

    def test_correct_entry_survives(self, tmp_path, dictionary):
        program = _add_op(
            dictionary, [SInput("ld0", 8, 16), SInput("ld1", 8, 16)]
        )
        served, cache, _key, entry_file = self._served(
            tmp_path, dictionary, program
        )
        assert served is not None and served.program == program
        counters = cache.counters()
        assert counters["screened"] == 1
        assert counters["screen_failures"] == 0
        assert counters["hits"] == 1
        assert entry_file.exists()
