"""Tests for the distilled rewrite-rule engine (repro.synthesis.rules):
distiller soundness, the ≥200-instantiation property check, the online
matcher's bit-identity guarantee, rulebook persistence, cache-pack v2,
gc reaping, and the rule_hits telemetry flow."""

import json
import random
from pathlib import Path

import pytest

from repro.autollvm import build_dictionary
from repro.halide import ir as hir
from repro.perf import global_counters
from repro.service import jobs
from repro.service.jobs import CompileJob, JobResult, JobTelemetry
from repro.service.scheduler import ServiceStats
from repro.service.store import (
    RULEBOOK_FILENAME,
    export_pack,
    gc_store,
    import_pack,
    store_stats,
)
from repro.service.telemetry import fold_outcome
from repro.experiments.runner import BenchmarkResult
from repro.synthesis import (
    CegisOptions,
    GrammarOptions,
    MemoCache,
    build_grammar,
    dictionary_fingerprint,
    synthesize,
)
from repro.synthesis.cache import window_env
from repro.synthesis.program import SInput, evaluate_program
from repro.synthesis.rules import (
    Rule,
    RuleBook,
    distill_rules,
    instantiate,
    normalize_program,
    program_signature,
    rule_window,
    verify_rule,
)
from repro.synthesis.scale import scale_down_program, scale_up_program

OPTIONS = CegisOptions(timeout_seconds=30)
# A namespace directory name: FINGERPRINT_DIR_CHARS lowercase hex chars.
FP = "00f0" * 4


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86", "hvx", "arm"))


def _const_window(op: str, const: int, lanes: int = 8, ew: int = 16):
    return hir.HBin(
        op, hir.HLoad("a", lanes, ew), hir.HConst(const, lanes, ew)
    )


def _synth(window, dictionary, cache, rules=None):
    grammar = build_grammar(window, "x86", dictionary, GrammarOptions())
    return synthesize(
        window, grammar, OPTIONS, cache, dictionary=dictionary, rules=rules
    )


@pytest.fixture(scope="module")
def seed_cache(dictionary):
    """A small seed family synthesized cold, in memory."""
    cache = MemoCache()
    for op in ("add", "mul"):
        for const in (3, 5, 9):
            _synth(_const_window(op, const), dictionary, cache)
    return cache


@pytest.fixture(scope="module")
def distilled(dictionary, seed_cache):
    """The seed family, distilled."""
    fingerprint = dictionary_fingerprint(dictionary)
    book, report = distill_rules(
        seed_cache._entries.items(), "x86", fingerprint=fingerprint, seed=7
    )
    return book, report


class TestDistiller:
    def test_distills_parameterized_rules(self, distilled):
        book, report = distilled
        assert report.scanned == 6
        assert len(book) >= 1
        # Constants became holes: at least one rule is parameterized
        # and covers several cache entries.
        assert any(rule.holes for rule in book.rules)
        assert any(rule.members >= 3 for rule in book.rules)
        # Every admitted rule passed a verifier and says which one.
        assert all(rule.verified for rule in book.rules)

    def test_every_rule_survives_200_random_instantiations(self, distilled):
        """Property check: 200 seeded random hole assignments per rule,
        each instantiation's concrete evaluation must equal the window
        semantics on random inputs."""
        book, _report = distilled
        rng = random.Random(0xC0FFEE)
        for rule in book.rules:
            for _ in range(200):
                values = {
                    name: rng.getrandbits(ew) for name, ew in rule.holes
                }
                program = instantiate(rule.template, values)
                window = rule_window(
                    rule,
                    lambda name, lanes, ew: hir.HConst(
                        values[name], lanes, ew
                    ),
                )
                env = window_env(window, rng)
                got = evaluate_program(program, env).value
                want = hir.interpret(window, env).value
                assert got == want, (
                    f"rule {rule.key} wrong at holes={values}"
                )

    def test_unsound_injected_rule_is_rejected(self, distilled):
        """A tampered rule whose template just forwards the input must
        not survive verification (it is wrong for any nonzero hole)."""
        book, _report = distilled
        victim = next(rule for rule in book.rules if rule.holes)
        leaf = next(
            n for n in victim.template.walk() if isinstance(n, SInput)
        )
        bogus = Rule(
            key=victim.key,
            isa=victim.isa,
            slots=victim.slots,
            holes=victim.holes,
            template=leaf,
            cost=0.0,
        )
        ok, reason = verify_rule(bogus, seed=1)
        assert not ok
        assert reason

    def test_scale_down_then_up_is_the_program(self, seed_cache, distilled):
        """The distiller's scale-down and the matcher's scale-up are one
        law: on every cached program and rule template, and every factor
        it scales down by, scaling back up gives the program again."""
        book, _report = distilled
        programs = [entry.program for entry in seed_cache._entries.values()]
        programs += [rule.template for rule in book.rules]
        pairs = 0
        for program in programs:
            for factor in (2, 4, 8, 16):
                down = scale_down_program(program, factor)
                if down is None:
                    continue
                pairs += 1
                assert scale_up_program(down, factor) == normalize_program(
                    program
                )
        assert pairs >= len(seed_cache)

    def test_counters_track_distillation(self, dictionary):
        cache = MemoCache()
        for const in (3, 5, 9):
            _synth(_const_window("add", const), dictionary, cache)
        counters = global_counters()
        distilled_before = counters.rule_distilled
        book, _report = distill_rules(cache._entries.items(), "x86", seed=7)
        assert counters.rule_distilled - distilled_before == len(book)


class TestMatcher:
    def test_unseen_constant_is_bit_identical(self, dictionary, distilled):
        book, _report = distilled
        window = _const_window("add", 121)
        served = book.match(window, "x86")
        assert served is not None
        fresh = _synth(window, dictionary, MemoCache())
        assert program_signature(served) == program_signature(fresh.program)

    def test_lane_scaled_match_is_bit_identical(self, dictionary, distilled):
        """Doubled lanes force equivalence-class re-binding to the wider
        sibling instruction; the result must still match fresh CEGIS."""
        book, _report = distilled
        window = _const_window("mul", 13, lanes=16)
        served = book.match(window, "x86")
        assert served is not None
        fresh = _synth(window, dictionary, MemoCache())
        assert program_signature(served) == program_signature(fresh.program)

    @pytest.mark.parametrize(
        "op,const,lanes,program",
        [
            ("add", 67, 8, "_mm_add_epi16(%a, splat(67, <8 x i16>))"),
            ("add", 119, 16, "_mm256_add_epi16(%a, splat(119, <16 x i16>))"),
            ("mul", 109, 8, "_mm_mullo_epi16(%a, splat(109, <8 x i16>))"),
            ("mul", 67, 16, "_mm256_mullo_epi16(%a, splat(67, <16 x i16>))"),
        ],
    )
    def test_near_miss_windows_keep_their_programs(
        self, distilled, op, const, lanes, program
    ):
        """The near_miss_windows bench's rule windows (unseen constants,
        doubled lanes) are served exactly these programs: a change to the
        match-time check's trials or RNG stream that alters what is
        served fails here."""
        book, _report = distilled
        served = book.match(_const_window(op, const, lanes=lanes), "x86")
        assert served is not None and served.describe() == program

    def test_unknown_shape_misses(self, distilled):
        book, _report = distilled
        counters = global_counters()
        misses_before = counters.rule_misses
        window = hir.HBin(
            "sub", hir.HLoad("a", 8, 16), hir.HLoad("b", 8, 16)
        )
        assert book.match(window, "x86") is None
        assert counters.rule_misses == misses_before + 1

    def test_synthesize_serves_from_rules_on_miss(self, dictionary, distilled):
        book, _report = distilled
        counters = global_counters()
        matches_before = counters.rule_matches
        result = _synth(
            _const_window("add", 77), dictionary, MemoCache(), rules=book
        )
        assert result.stats.verified == "rule"
        assert counters.rule_matches == matches_before + 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, dictionary, distilled):
        book, _report = distilled
        path = book.save(tmp_path)
        assert path.name == RULEBOOK_FILENAME
        loaded = RuleBook.load(
            tmp_path, dictionary, expect_fingerprint=book.fingerprint
        )
        assert loaded is not None
        assert loaded.stats() == book.stats()
        # The reloaded book still matches.
        assert loaded.match(_const_window("add", 55), "x86") is not None

    def test_stale_fingerprint_refused(self, tmp_path, dictionary, distilled):
        book, _report = distilled
        book.save(tmp_path)
        assert (
            RuleBook.load(tmp_path, dictionary, expect_fingerprint="deadbeef")
            is None
        )


def _fake_namespace(root, isa="x86", fingerprint=FP, rules=True):
    namespace = root / isa / fingerprint
    namespace.mkdir(parents=True)
    (namespace / "meta.json").write_text(
        json.dumps({"fingerprint": fingerprint})
    )
    (namespace / "e-0000.json").write_text(json.dumps({"program": 0}))
    if rules:
        (namespace / RULEBOOK_FILENAME).write_text(
            json.dumps(
                {"version": 1, "isa": isa, "fingerprint": fingerprint,
                 "rules": [{"fake": True}]}
            )
        )
    return namespace


class TestCachePackRules:
    def test_pack_v2_carries_rulebook(self, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        _fake_namespace(source)
        pack = tmp_path / "warm.pack"
        summary = export_pack(source, pack)
        assert summary["rulebooks"] == 1
        assert json.loads(pack.read_text())["version"] == 2

        target = tmp_path / "dst"
        result = import_pack(target, pack)
        assert result["rulebooks"] == 1
        shipped = target / "x86" / FP / RULEBOOK_FILENAME
        assert json.loads(shipped.read_text())["fingerprint"] == FP

    def test_pack_v1_still_imports(self, tmp_path):
        """Backward compat: a version-1 pack (no rules payload) loads."""
        pack = tmp_path / "old.pack"
        pack.write_text(json.dumps({
            "version": 1,
            "namespaces": [{
                "isa": "x86",
                "dir": FP,
                "meta": {"fingerprint": FP},
                "files": {"e-0000.json": {"program": 0}},
            }],
        }))
        result = import_pack(tmp_path / "dst", pack)
        assert result["imported"] >= 1
        assert result["rulebooks"] == 0

    def test_import_keeps_local_rulebook(self, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        _fake_namespace(source)
        pack = tmp_path / "warm.pack"
        export_pack(source, pack)

        target = tmp_path / "dst"
        local = _fake_namespace(target, rules=False) / RULEBOOK_FILENAME
        local.write_text(json.dumps({"version": 1, "rules": [], "local": 1}))
        import_pack(target, pack)
        assert json.loads(local.read_text()).get("local") == 1

    def test_store_stats_counts_rules(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        _fake_namespace(root)
        stats = store_stats(root)
        assert stats["total_rules"] == 1
        assert stats["namespaces"][0]["rules"] == 1


class TestGcRulebooks:
    def test_gc_reaps_stale_rulebook_in_kept_namespace(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        namespace = _fake_namespace(root, fingerprint="a" * 16, rules=False)
        # The namespace is current, but its rulebook was distilled
        # against a different dictionary generation.
        rules = namespace / RULEBOOK_FILENAME
        rules.write_text(json.dumps(
            {"version": 1, "isa": "x86", "fingerprint": "old" * 8,
             "rules": []}
        ))
        outcome = gc_store(root, "a" * 64)
        assert outcome["removed_namespaces"] == 0
        assert outcome["removed_rulebooks"] == 1
        assert not rules.exists()
        # Cache entries in the kept namespace are untouched.
        assert (namespace / "e-0000.json").exists()

    def test_gc_reaps_corrupt_rulebook(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        namespace = _fake_namespace(root, fingerprint="a" * 16, rules=False)
        rules = namespace / RULEBOOK_FILENAME
        rules.write_text("{torn write")
        outcome = gc_store(root, "a" * 64)
        assert outcome["removed_rulebooks"] == 1
        assert not rules.exists()

    def test_gc_keeps_fresh_rulebook(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        fingerprint = "a" * 64
        namespace = _fake_namespace(
            root, fingerprint=fingerprint[:16], rules=False
        )
        rules = namespace / RULEBOOK_FILENAME
        rules.write_text(json.dumps(
            {"version": 1, "isa": "x86", "fingerprint": fingerprint,
             "rules": []}
        ))
        outcome = gc_store(root, fingerprint)
        assert outcome["removed_rulebooks"] == 0
        assert rules.exists()


class TestRulesCli:
    def test_default_covers_every_isa_on_the_one_dictionary(
        self, tmp_path, capsys
    ):
        """With no ``--isa`` the CLI reads every registered ISA's
        namespace, rvv included, under the one dictionary's fingerprint."""
        from repro.isa.registry import supported_isas
        from repro.rules.cli import main

        fingerprint = dictionary_fingerprint(build_dictionary())
        namespace = tmp_path / "rvv" / fingerprint[:16]
        namespace.mkdir(parents=True)
        (namespace / RULEBOOK_FILENAME).write_text(json.dumps(
            {"version": 1, "isa": "rvv", "fingerprint": fingerprint,
             "rules": []}
        ))
        assert main(["stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [item["isa"] for item in payload] == list(supported_isas())
        assert payload[-1]["book"]["fingerprint"] == fingerprint


    def test_distill_reads_a_store_another_process_wrote(
        self, tmp_path, dictionary, seed_cache, distilled, monkeypatch,
        capsys,
    ):
        """``distill`` scans the whole namespace, not just the entries
        its cache object happened to look up: a store written by another
        process distills to the rulebook its entries give in memory."""
        import multiprocessing

        from repro.rules import cli
        from repro.service.store import PersistentCache

        def write() -> None:
            cache = PersistentCache(tmp_path, "x86", dictionary)
            for key, entry in seed_cache._entries.items():
                cache.put_entry(key, entry)

        writer = multiprocessing.get_context("fork").Process(target=write)
        writer.start()
        writer.join()
        assert writer.exitcode == 0
        fingerprint = dictionary_fingerprint(dictionary)
        monkeypatch.setattr(cli, "_dictionary", lambda: (dictionary, fingerprint))
        assert cli.main([
            "distill", "--cache-dir", str(tmp_path), "--isa", "x86", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        book, report = distilled
        assert payload[0]["report"]["scanned"] == report.scanned == 6
        assert payload[0]["book"]["rules"] == len(book) >= 1
        saved = json.loads(Path(payload[0]["saved"]).read_text())
        assert sorted(rule["key"] for rule in saved["rules"]) == sorted(
            rule.key for rule in book.rules
        )


class TestTelemetryFlow:
    def test_rule_hits_fold_into_service_stats(self):
        outcome = JobResult(
            job=None,
            result=BenchmarkResult("add", "x86", "hydride", 1.0),
            telemetry=JobTelemetry(rule_hits=3, synth_calls=1),
        )
        stats = ServiceStats()
        fold_outcome(stats, outcome)
        assert stats.rule_hits == 3
        # Rule-served windows count as cache activity, not misses.
        assert stats.lookups == 4
        assert stats.to_dict()["rule_hits"] == 3

    def test_rescued_window_does_not_hide_a_search(
        self, dictionary, distilled, monkeypatch
    ):
        """One window the negative cache remembers and a rule rescues
        (a rule hit without a cache miss), one window no rule covers:
        the job started one CEGIS search and reports it."""
        book, _report = distilled
        rescued = _const_window("add", 121)
        searched = hir.HBin("add", hir.HLoad("a", 8, 16), hir.HLoad("b", 8, 16))
        cache = MemoCache()
        cache.store_failure(rescued, "x86")

        def compile_once(job, _name, _dictionary, cache, _cegis, _deadline,
                         rules=None):
            for window in (rescued, searched):
                _synth(window, dictionary, cache, rules=rules)
            return BenchmarkResult(job.benchmark, job.isa, job.compiler, 1.0)

        monkeypatch.setattr(jobs, "build_dictionary", lambda: dictionary)
        monkeypatch.setattr(jobs, "_open_cache", lambda *_: cache)
        monkeypatch.setattr(jobs, "_open_rules", lambda *_: book)
        monkeypatch.setattr(jobs, "_compile_once", compile_once)
        outcome = jobs.execute_job(CompileJob("add", "x86"), None, OPTIONS)
        assert outcome.telemetry.failure_hits == 1
        assert outcome.telemetry.rule_hits == 1
        assert outcome.telemetry.synth_calls == 1
