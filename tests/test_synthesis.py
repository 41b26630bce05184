"""Tests for the code synthesizer: grammar, scaling, CEGIS, cache."""

import random
import time

import pytest

from repro.autollvm import build_dictionary
from repro.bitvector.lanes import vector_from_ints
from repro.halide import ir as hir
from repro.synthesis import (
    CegisOptions,
    GrammarOptions,
    MemoCache,
    SInput,
    SynthesisFailure,
    build_grammar,
    synthesize,
)
from repro.synthesis import cegis
from repro.synthesis.cache import canonical_key
from repro.synthesis.cegis import _Candidate, _check_full_width, _Enumerator
from repro.synthesis.cost import CostModel
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SHole,
    SSlice,
    SSwizzle,
    evaluate_program,
    program_to_term,
    swizzle_elements,
)
from repro.synthesis.scale import scale_spec, scaled_member_values
from repro.synthesis.translate import translate_program
from repro.smt.eval import evaluate


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86", "hvx", "arm"))


def _add_window(lanes=16, ew=16):
    return hir.HBin(
        "add", hir.HLoad("ld0", lanes, ew), hir.HLoad("ld1", lanes, ew)
    )


def _dot_window(lanes_out=16):
    a = hir.HLoad("ld0", lanes_out * 2, 16)
    b = hir.HLoad("ld1", lanes_out * 2, 16)
    acc = hir.HLoad("ld2", lanes_out, 32)
    return hir.HBin(
        "add",
        hir.HReduceAdd(
            hir.HBin("mul", hir.HCast("sext", a, 32), hir.HCast("sext", b, 32)), 2
        ),
        acc,
    )


class TestGrammar:
    def test_bvs_prunes(self, dictionary):
        window = _add_window()
        pruned = build_grammar(window, "x86", dictionary)
        unpruned = build_grammar(
            window, "x86", dictionary, GrammarOptions(include_all=True, bvs=False, sbos=False)
        )
        assert pruned.size() < unpruned.size() / 3

    def test_bvs_keeps_relevant_ops(self, dictionary):
        grammar = build_grammar(_dot_window(), "x86", dictionary)
        names = {e.name for e in grammar.entries}
        assert any("dpwssd" in n for n in names)
        assert any("madd" in n for n in names)
        assert not any("sad" in n for n in names)

    def test_sbos_reduces_further(self, dictionary):
        window = _dot_window()
        with_sbos = build_grammar(window, "x86", dictionary, GrammarOptions(k=3))
        without = build_grammar(window, "x86", dictionary, GrammarOptions(sbos=False))
        assert with_sbos.size() <= without.size()

    def test_min_elem_screen(self, dictionary):
        # A 32-bit window should not pull in 8-bit-element instructions.
        window = _add_window(lanes=16, ew=32)
        grammar = build_grammar(window, "x86", dictionary)
        for entry in grammar.entries:
            elem_width = entry.binding.spec.attributes.get("elem_width", 64)
            assert not (isinstance(elem_width, int) and 1 < elem_width < 32)

    def test_swizzles_always_included(self, dictionary):
        grammar = build_grammar(_add_window(), "hvx", dictionary)
        assert len(grammar.swizzle_patterns) == 8


def _walk_ops(body) -> set[str]:
    return {op for node in body.walk() if (op := getattr(node, "op", None))}


class TestGrammarScanMemo:
    """``AutoLLVMOp.ops_used``, ``AutoLLVMDictionary.ops_for_isa`` and
    ``grammar._binding_ops`` are memoised on their immutable objects; the
    scan must produce exactly what it produces without the memos."""

    @staticmethod
    def _windows():
        from bench_e2e import nearmiss
        from bench_e2e.workloads import POPULATION
        from repro.backend.hydride import rewrite_broadcasts
        from repro.workloads.registry import benchmark_named

        windows = []

        def visit(window, isa):
            windows.append((isa, window))
            for kid in window.children():
                if kid.size() > 1:
                    visit(kid, isa)

        for name, isa in POPULATION:
            for kernel in benchmark_named(name).lower(isa):
                visit(rewrite_broadcasts(kernel.window), isa)
        near_miss = nearmiss.seed_family()
        for seed in (11, 12, 13):
            near_miss += nearmiss.stream(seed)
        return windows + [(nearmiss.ISA, window) for window in near_miss]

    @staticmethod
    def _entries(window, isa, dictionary):
        grammar = build_grammar(window, isa, dictionary)
        return [(e.name, e.imm_values, e.score) for e in grammar.entries]

    def test_entries_identical_to_an_unmemoised_scan(self, monkeypatch):
        from repro.autollvm.intrinsics import AutoLLVMDictionary, AutoLLVMOp
        from repro.synthesis import grammar as grammar_module

        dictionary = build_dictionary()
        windows = self._windows()
        memoised = [self._entries(w, isa, dictionary) for isa, w in windows]
        monkeypatch.setattr(
            AutoLLVMOp, "ops_used",
            lambda op: _walk_ops(op.eq_class.representative.body),
        )
        monkeypatch.setattr(
            AutoLLVMDictionary, "ops_for_isa",
            lambda d, isa: [op for op in d.ops if isa in op.isas()],
        )
        monkeypatch.setattr(
            grammar_module, "_binding_ops",
            lambda binding: _walk_ops(binding.member.symbolic.body),
        )
        plain = [self._entries(w, isa, dictionary) for isa, w in windows]
        assert memoised == plain
        assert all(memoised)


class TestNativeSwizzlesParseFree:
    """``native_swizzles_for`` runs in every forked worker; it must read
    the generated catalog and never parse a vendor spec."""

    def test_no_spec_is_parsed_for_any_isa(self):
        # A fresh interpreter: this process may already hold load_isa's
        # per-process cache, which would hide a parse.
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import repro.isa.registry as registry\n"
            "def boom(*args, **kwargs):\n"
            "    raise AssertionError('parsed a vendor spec')\n"
            "registry.parse_spec = boom\n"
            "from repro.synthesis.grammar import native_swizzles_for\n"
            "for isa in registry.supported_isas():\n"
            "    print(isa, sorted(native_swizzles_for(isa)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()] == [
            "x86", "hvx", "arm", "rvv",
        ]

    def test_matches_the_parsed_catalog(self):
        from repro.isa.registry import load_isa
        from repro.synthesis.grammar import _FAMILY_SWIZZLES, native_swizzles_for

        expected = set()
        for spec in load_isa("hvx").catalog:
            expected |= _FAMILY_SWIZZLES.get(spec.family, set())
        assert expected
        assert native_swizzles_for("hvx") == expected


class TestScaling:
    def test_scale_spec(self):
        scaled = scale_spec(_dot_window(16), 4)
        assert scaled is not None
        assert scaled.type.lanes == 4

    def test_scale_preserves_reduce_factor(self):
        scaled = scale_spec(_dot_window(16), 4)
        reduces = [n for n in scaled.walk() if isinstance(n, hir.HReduceAdd)]
        assert reduces[0].factor == 2

    def test_scale_rejects_indivisible(self):
        window = _add_window(lanes=6)
        assert scale_spec(window, 4) is None

    def test_scale_concat_of_tiles(self):
        small = hir.HLoad("w", 2, 16)
        tiled = hir.HConcat(tuple([small] * 8))
        scaled = scale_spec(tiled, 4)
        assert scaled is not None
        assert scaled.type.lanes == 4  # 2 tiles of 2 lanes

    def test_member_scaling(self, dictionary):
        op = dictionary.by_target_instruction["_mm512_add_epi16"]
        binding = next(
            b for b in op.bindings if b.spec.name == "_mm512_add_epi16"
        )
        scaled = scaled_member_values(binding, 4)
        assert scaled is not None
        assert 128 in scaled  # 512-bit register scaled to 128

    def test_member_scaling_keeps_elem_width(self, dictionary):
        op = dictionary.by_target_instruction["_mm512_add_epi16"]
        binding = next(
            b for b in op.bindings if b.spec.name == "_mm512_add_epi16"
        )
        scaled = scaled_member_values(binding, 4)
        assert 16 in scaled  # element width untouched

    def test_broadcast_input_not_scaled(self, dictionary):
        """Scalar-chunk inputs of broadcasts stay fixed under scaling."""
        op = dictionary.by_target_instruction.get("_mm512_broadcastd_epi32")
        if op is None:
            pytest.skip("broadcast not in catalog")
        binding = next(
            b for b in op.bindings if b.spec.name == "_mm512_broadcastd_epi32"
        )
        scaled = scaled_member_values(binding, 4)
        assert scaled is not None
        assert 32 in scaled  # the 32-bit source chunk is intensive


class TestPrograms:
    def test_swizzle_semantics(self):
        vec = vector_from_ints([0, 1, 2, 3], 8)
        out = swizzle_elements("interleave_single", [vec])
        assert [e.value for e in out] == [0, 2, 1, 3]
        out = swizzle_elements("deinterleave_single", [vec])
        assert [e.value for e in out] == [0, 2, 1, 3]
        out = swizzle_elements("rotate_right", [vec], amount=1)
        assert [e.value for e in out] == [1, 2, 3, 0]

    def test_interleave_full(self):
        a = vector_from_ints([1, 2], 8)
        b = vector_from_ints([9, 8], 8)
        out = swizzle_elements("interleave_full", [a, b])
        assert [e.value for e in out] == [1, 9, 2, 8]

    def test_program_term_matches_eval(self):
        node = SSwizzle(
            "interleave_full",
            (SInput("a", 4, 8), SInput("b", 4, 8)),
            8,
            64,
        )
        env = {
            "a": vector_from_ints([1, 2, 3, 4], 8).bits,
            "b": vector_from_ints([5, 6, 7, 8], 8).bits,
        }
        term = program_to_term(node)
        assert evaluate(term, env).value == evaluate_program(node, env).value

    def test_slice_semantics(self):
        node = SSlice(SInput("a", 4, 8), high=True)
        env = {"a": vector_from_ints([1, 2, 3, 4], 8).bits}
        assert evaluate_program(node, env).value == vector_from_ints([3, 4], 8).bits.value


class TestCegis:
    def test_simple_add_synthesizes(self, dictionary):
        window = _add_window()
        grammar = build_grammar(window, "x86", dictionary)
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=30))
        assert result.program.op_count() == 1
        assert "add" in result.program.describe()

    def test_solution_is_correct(self, dictionary):
        window = _add_window(lanes=8)
        grammar = build_grammar(window, "x86", dictionary)
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=30))
        env = {
            "ld0": vector_from_ints(list(range(8)), 16).bits,
            "ld1": vector_from_ints([100] * 8, 16).bits,
        }
        assert (
            evaluate_program(result.program, env).value
            == hir.interpret(window, env).value
        )

    def test_saturating_add_finds_native_op(self, dictionary):
        a = hir.HLoad("ld0", 16, 16)
        b = hir.HLoad("ld1", 16, 16)
        window = hir.HBin("adds", a, b)
        grammar = build_grammar(window, "x86", dictionary)
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=30))
        assert "adds" in result.program.describe()
        assert result.cost <= 1.5

    def test_empty_grammar_fails(self, dictionary):
        window = _add_window()
        grammar = build_grammar(window, "x86", dictionary)
        grammar.entries = []
        with pytest.raises(SynthesisFailure):
            synthesize(window, grammar, CegisOptions(timeout_seconds=5, max_depth=1))

    def test_timeout_respected(self, dictionary):
        import time

        window = _dot_window(16)
        grammar = build_grammar(
            window, "x86", dictionary, GrammarOptions(bvs=False, sbos=False, top_n_by_score=50)
        )
        start = time.time()
        # The budget must sit well under what this window needs (~3 s
        # since the compiled evaluator; it was ~12 s when this said 3).
        with pytest.raises(SynthesisFailure) as failure:
            synthesize(window, grammar, CegisOptions(timeout_seconds=0.5))
        assert failure.value.timed_out
        assert time.time() - start < 30


class TestFullWidthCheck:
    """The scaled-up program's full-width fuzz check."""

    def test_evaluation_error_is_named_in_the_failure(self):
        hole = SHole("k", 4, 8)
        with pytest.raises(SynthesisFailure) as failure:
            _check_full_width(hole, hir.HLoad("ld0", 4, 8), random.Random(0), 4)
        message = str(failure.value)
        assert message.startswith("scaled-up solution failed full-width check")
        assert "ValueError" in message and "'k' must be instantiated" in message

    def test_mismatch_and_match(self):
        window = _add_window(lanes=4, ew=8)
        with pytest.raises(
            SynthesisFailure,
            match="full-width check: program differs from the specification "
            "on a random input$",
        ):
            _check_full_width(SInput("ld0", 4, 8), window, random.Random(0), 4)
        _check_full_width(SInput("ld0", 4, 8), hir.HLoad("ld0", 4, 8),
                          random.Random(0), 4)


class TestEnumerator:
    """Pool bookkeeping the search's bit-identity rests on."""

    FIELDS = ("node", "cost", "outs", "depth", "elem", "landmark", "bits", "kind")

    @staticmethod
    def seeded(dictionary) -> _Enumerator:
        """Two 64-bit inputs, their 32-bit halves, two seed environments."""
        window = _add_window(lanes=4, ew=16)
        enumerator = _Enumerator(
            build_grammar(window, "x86", dictionary),
            window,
            random.Random(7),
            time.monotonic() + 60,
            1,
        )
        for _ in range(2):
            enumerator.add_env(enumerator.random_env())
        enumerator.seed_pool()
        return enumerator

    def test_admission_drops_only_its_own_widths_argument_pools(self, dictionary):
        enumerator = self.seeded(dictionary)
        wide, narrow = enumerator._args_for(64), enumerator._args_for(32)
        assert enumerator._args_for(64) is wide
        enumerator._admit(SConstant(5, 2, 16), 0.0, 0)
        assert enumerator.pool[-1].bits == 32
        assert enumerator._args_for(64) is wide
        refreshed = enumerator._args_for(32)
        assert refreshed is not narrow
        assert enumerator.pool[-1] in refreshed and enumerator.pool[-1] not in narrow

    def test_cap_shed_width_keeps_its_empty_bucket(self, dictionary, monkeypatch):
        enumerator = self.seeded(dictionary)
        monkeypatch.setattr(cegis, "POOL_PER_WIDTH", 0)
        size = len(enumerator.pool)
        enumerator._admit(SConstant(3, 1, 16), 0.0, 0)
        assert len(enumerator.pool) == size
        # _grow's per-width loops iterate by_width: the shed width is
        # still one of them.
        assert enumerator.by_width[16] == []

    def test_outs_first_admission_equals_admitting_the_built_node(self, dictionary):
        direct, reference = self.seeded(dictionary), self.seeded(dictionary)

        def same_pools():
            assert len(direct.pool) == len(reference.pool)
            for got, want in zip(direct.pool, reference.pool):
                for name in self.FIELDS:
                    assert getattr(got, name) == getattr(want, name), name
                assert (got.args is None) == (want.args is None)
                if got.args is not None:
                    assert [direct.pool.index(a) for a in got.args] == [
                        reference.pool.index(a) for a in want.args
                    ]
            assert direct.seen == reference.seen
            assert direct._kind_counts == reference._kind_counts

        same_pools()
        size = len(direct.pool)
        # Register pairing, twice: the second is a duplicate for both.
        for _ in range(2):
            high, low = direct.pool[0], direct.pool[1]
            direct._admit_concat(high, low, high.cost + low.cost, 1)
            high, low = reference.pool[0], reference.pool[1]
            reference._admit(
                SConcat(high.node, low.node), high.cost + low.cost, 1,
                arg_candidates=(high, low),
            )
        assert len(direct.pool) == size + 1
        assert direct.pool[-1].node == SConcat(direct.pool[0].node, direct.pool[1].node)
        # Half-register views of a fresh value.
        for enumerator in (direct, reference):
            enumerator._admit(SConstant(0x1234, 4, 16), 0.0, 1)
        for high in (True, False):
            direct._admit_slice(direct.pool[size + 1], high, 1)
            src = reference.pool[size + 1]
            reference._admit(
                SSlice(src.node, high), src.cost, 1, force=True, arg_candidates=(src,)
            )
        assert len(direct.pool) == size + 3  # both halves of a splat are equal
        same_pools()


    @staticmethod
    def full_scan_args(enumerator, bits, cap, elem):
        """The argument pool by partitioning the whole bucket, which is
        how ``_args_for_uncached`` defined it before its scan stopped at
        the quotas."""
        cap = cap or cegis.ARGS_PER_WIDTH
        frontier = enumerator.depth - 1
        ops, swizzles, others, fresh = ([], []), ([], []), ([], []), ([], [])
        for c in enumerator.by_width.get(bits, ()):
            if not (elem is None or c.elem is None or c.elem == elem or c.depth == 0):
                continue
            rank = 0 if c.landmark else 1
            group = {"op": ops, "swizzle": swizzles}.get(c.kind, others)
            group[rank].append(c)
            if c.depth >= frontier > 0:
                fresh[rank].append(c)

        def pick(group, count):
            return (group[0] + group[1])[:count]

        chosen = (
            pick(ops, cap) + pick(swizzles, max(3, cap // 2))
            + pick(others, max(4, cap // 2))
        )
        if frontier > 0:
            chosen += [c for c in pick(fresh, cap) if c not in chosen]
        return chosen

    def test_argument_pools_equal_the_full_scan(self, dictionary):
        enumerator = self.seeded(dictionary)
        enumerator.grow()
        # A new input re-ranks landmarks and rebuilds the landmark lists.
        enumerator.add_env(enumerator.random_env())
        compared = 0
        for depth in (1, 2, 3):
            enumerator.depth = depth
            for bits in enumerator.by_width:
                for cap in (None, 2, 8, 12):
                    for elem in (None, 8, 16, 32):
                        got = enumerator._args_for_uncached(bits, cap, elem)
                        assert got == self.full_scan_args(
                            enumerator, bits, cap, elem
                        ), (depth, bits, cap, elem)
                        compared += bool(got)
        assert compared

    def test_a_pairing_that_cannot_lead_is_neither_landmark_nor_lane0(
        self, dictionary
    ):
        """``_may_lead`` is a necessary condition: a pairing it rules out
        could enter a spent allowance neither as a landmark nor as a
        spec lane-0 match."""
        enumerator = self.seeded(dictionary)
        enumerator.grow()
        outcomes = set()
        for bits, bucket in enumerator.by_width.items():
            if 2 * bits > enumerator.max_bits:
                continue
            for high in bucket[:25]:
                for low in bucket[:25]:
                    outs = [
                        ((h & ((1 << bits) - 1)) << bits) | (lo & ((1 << bits) - 1))
                        for h, lo in zip(high.outs, low.outs)
                    ]
                    could_enter = (2 * bits, tuple(outs)) in enumerator._landmarks or (
                        2 * bits == enumerator.spec_bits
                        and enumerator._matches_lane0(outs)
                    )
                    lead = enumerator._may_lead(low, {})
                    assert lead or not could_enter, (high.node, low.node)
                    outcomes.add((lead, could_enter))
        assert {(True, True), (False, False)} <= outcomes
        # A low half with the spec's lane 0 and a wrong lane 1 is no
        # landmark's low half, yet its pairings match lane 0.
        lane0 = [out.value & 0xFFFF for out in enumerator.spec_outs]
        low = _Candidate(
            SConstant(0, 2, 16), 0.0, [v | 0xABCD0000 for v in lane0], bits=32
        )
        outs = [(0x1234 << 32) | out for out in low.outs]
        assert (64, tuple(outs)) not in enumerator._landmarks
        assert enumerator._matches_lane0(outs)
        assert enumerator._may_lead(low, {})


def _interpreted_refute(node, spec, enumerator, trials):
    """``_fuzz_refute`` on the interpreters alone: the reference."""
    for _ in range(trials):
        env = enumerator.random_env()
        if evaluate_program(node, env).value != hir.interpret(spec, env).value:
            return env
    return None


class TestFuzzRefute:
    """Refutation on compiled forms returns what the interpreters return."""

    def test_same_inputs_and_rng_state_as_the_interpreters(self, dictionary):
        # Right candidates (the plain add) and near misses (saturating
        # adds, which differ only where a lane overflows).
        window = _add_window(lanes=8, ew=16)
        grammar = build_grammar(window, "x86", dictionary)
        deadline = time.monotonic() + 60
        pool = _Enumerator(grammar, window, random.Random(3), deadline, 1)
        for _ in range(2):
            pool.add_env(pool.random_env())
        pool.seed_pool()
        pool.grow()
        stream = [c.node for c in pool.pool if c.bits == window.type.bits]
        random.Random(5).shuffle(stream)
        packed_spec = hir.compile_packed(window)
        assert packed_spec is not None
        fast, slow = (
            _Enumerator(grammar, window, random.Random(11), deadline, 1)
            for _ in range(2)
        )
        outcomes = []
        for node in stream:
            got = cegis._fuzz_refute(node, window, packed_spec, fast, 24)
            want = _interpreted_refute(node, window, slow, 24)
            assert got == want, node.describe()
            assert fast.rng.getstate() == slow.rng.getstate()
            outcomes.append(got is None)
        assert True in outcomes and False in outcomes
        # A declined spec refutes on the interpreter, with the same draws.
        for node in stream[:20]:
            got = cegis._fuzz_refute(node, window, None, fast, 8)
            assert got == _interpreted_refute(node, window, slow, 8)
            assert fast.rng.getstate() == slow.rng.getstate()

    def test_a_wrong_compiled_spec_cannot_refute(self, dictionary):
        """A trial the compiled forms disagree on is confirmed by the
        interpreters, so a compiled spec that is wrong everywhere costs
        time but refutes nothing that is right."""
        window = _add_window(lanes=4, ew=16)
        grammar = build_grammar(window, "x86", dictionary)
        enumerator = _Enumerator(
            grammar, window, random.Random(2), time.monotonic() + 60, 1
        )
        right = SInput("ld0", 4, 16)
        spec = hir.HLoad("ld0", 4, 16)
        assert cegis._fuzz_refute(right, spec, lambda values: -1, enumerator, 16) is None


class TestCache:
    def test_canonical_key_renames_loads(self):
        a = _add_window()
        b = hir.HBin(
            "add", hir.HLoad("other0", 16, 16), hir.HLoad("other1", 16, 16)
        )
        assert canonical_key(a, "x86") == canonical_key(b, "x86")

    def test_key_distinguishes_ops(self):
        a = _add_window()
        b = hir.HBin("sub", hir.HLoad("ld0", 16, 16), hir.HLoad("ld1", 16, 16))
        assert canonical_key(a, "x86") != canonical_key(b, "x86")

    def test_key_distinguishes_isa(self):
        a = _add_window()
        assert canonical_key(a, "x86") != canonical_key(a, "hvx")

    def test_cache_hit_remaps_inputs(self, dictionary):
        cache = MemoCache()
        window = _add_window()
        grammar = build_grammar(window, "x86", dictionary)
        synthesize(window, grammar, CegisOptions(timeout_seconds=30), cache)
        assert len(cache) == 1
        renamed = hir.HBin(
            "add", hir.HLoad("p", 16, 16), hir.HLoad("q", 16, 16)
        )
        hit = cache.lookup(renamed, "x86")
        assert hit is not None
        names = {
            n.name for n in hit.program.walk() if isinstance(n, SInput)
        }
        assert names == {"p", "q"}

    def test_negative_cache(self):
        cache = MemoCache()
        window = _add_window()
        assert not cache.lookup_failure(window, "x86")
        cache.store_failure(window, "x86")
        assert cache.lookup_failure(window, "x86")


class TestTranslate:
    def test_translation_emits_autollvm_calls(self, dictionary):
        window = _add_window()
        grammar = build_grammar(window, "x86", dictionary)
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=30))
        translated = translate_program(result.program, "w0", 16)
        text = translated.function.render()
        assert "@autollvm." in text
        assert translated.op_count == 1

    def test_translated_function_verifies(self, dictionary):
        from repro.autollvm.llvmir import verify_function

        window = _add_window()
        grammar = build_grammar(window, "x86", dictionary)
        result = synthesize(window, grammar, CegisOptions(timeout_seconds=30))
        translated = translate_program(result.program, "w0", 16)
        verify_function(translated.function)

    def test_cost_model_counts_all_ops(self):
        model = CostModel({"interleave_full"})
        node = SSwizzle(
            "interleave_full",
            (SInput("a", 4, 8), SInput("b", 4, 8)),
            8,
            64,
        )
        assert model.cost(node) == 1.0
        alien = SSwizzle("rotate_right", (SInput("a", 4, 8),), 8, 32, 1)
        assert model.cost(alien) == 3.0
