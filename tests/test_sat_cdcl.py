"""The modern CDCL core: Luby restarts, VSIDS decay, DB reduction.

Covers the heuristic upgrade in :mod:`repro.smt.sat` — the Luby
sequence itself, activity decay ordering, LBD-based learned-clause
database reduction (which must never delete reason/glue clauses or
change verdicts), restart policies, and a randomized equivalence suite
pinning every configuration to the same verdicts on random CNFs.
"""

import random

import pytest

from repro.smt.sat import CdclSolver, SolverConfig, luby, solve_cnf


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    """Random 3-ish-SAT without tautology clauses (see test_smt_incremental)."""
    clauses = []
    while len(clauses) < num_clauses:
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, num_vars + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in chosen]
        if any(-lit in clause for lit in clause):
            continue
        clauses.append(clause)
    return clauses


def check_model(clauses, model):
    for clause in clauses:
        assert any(
            model[abs(lit)] == (lit > 0) for lit in clause
        ), f"model does not satisfy {clause}"


def pigeonhole(pigeons: int, holes: int):
    """PHP(p, h): UNSAT for p > h, and resolution-hard — a reliable way
    to force real conflict analysis and clause learning."""

    def hole_var(p, h):
        return p * holes + h + 1

    clauses = [[hole_var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-hole_var(p1, h), -hole_var(p2, h)])
    return pigeons * holes, clauses


class TestLuby:
    def test_first_fifteen_elements(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_block_maxima_are_powers_of_two(self):
        # Element 2^k - 1 closes a block with value 2^(k-1).
        for k in range(1, 10):
            assert luby((1 << k) - 1) == 1 << (k - 1)

    def test_one_indexed(self):
        with pytest.raises(ValueError):
            luby(0)


class TestSolverConfig:
    def test_legacy_pins_pre_upgrade_heuristics(self):
        legacy = SolverConfig.legacy()
        assert legacy.var_decay == pytest.approx(1.0 / 1.05)
        assert legacy.restart == "geometric"
        assert not legacy.reduce_db

    def test_modern_defaults(self):
        config = SolverConfig()
        assert config.restart == "luby"
        assert config.reduce_db
        assert 0.0 < config.var_decay < 1.0


class TestActivityDecay:
    def test_increment_grows_per_conflict(self):
        solver = CdclSolver(config=SolverConfig(var_decay=0.5))
        solver._decay_activity()
        solver._decay_activity()
        assert solver.activity_inc == pytest.approx(4.0)

    def test_later_bumps_outrank_earlier_ones(self):
        """With decay on, a variable bumped after a conflict beats one
        bumped before it — recency drives the VSIDS ordering."""
        solver = CdclSolver(config=SolverConfig(var_decay=0.5))
        solver.ensure_vars(2)
        solver._bump(1)
        solver._decay_activity()
        solver._bump(2)
        assert solver.activity[2] > solver.activity[1]

    def test_no_decay_means_no_ordering(self):
        solver = CdclSolver(config=SolverConfig(var_decay=1.0))
        solver.ensure_vars(2)
        solver._bump(1)
        solver._decay_activity()
        solver._bump(2)
        assert solver.activity[2] == solver.activity[1]

    def test_rescale_preserves_relative_order(self):
        solver = CdclSolver(config=SolverConfig(var_decay=0.5))
        solver.ensure_vars(2)
        # Push the increment past the rescale threshold.
        solver._bump(1)
        for _ in range(400):
            solver._decay_activity()
        solver._bump(2)
        assert solver.activity[2] > solver.activity[1]
        assert solver.activity_inc < 1e100


class TestRestarts:
    def test_none_policy_never_restarts(self):
        num_vars, clauses = pigeonhole(5, 4)
        solver = CdclSolver(
            num_vars, clauses, config=SolverConfig(restart="none")
        )
        assert not solver.solve().satisfiable
        assert solver.restarts == 0

    def test_luby_restarts_fire_on_conflict_rich_instances(self):
        num_vars, clauses = pigeonhole(5, 4)
        solver = CdclSolver(
            num_vars, clauses, config=SolverConfig(restart="luby", luby_unit=4)
        )
        assert not solver.solve().satisfiable
        assert solver.restarts > 0
        assert solver.total_conflicts > solver.restarts

    def test_geometric_restarts_fire(self):
        num_vars, clauses = pigeonhole(5, 4)
        solver = CdclSolver(
            num_vars,
            clauses,
            config=SolverConfig(restart="geometric", restart_base=4),
        )
        assert not solver.solve().satisfiable
        assert solver.restarts > 0


class TestDbReduction:
    def test_reduction_fires_and_verdict_survives(self):
        num_vars, clauses = pigeonhole(5, 4)
        solver = CdclSolver(
            num_vars,
            clauses,
            config=SolverConfig(luby_unit=4, reduce_interval=5),
        )
        assert not solver.solve().satisfiable
        assert solver.db_reductions > 0
        assert solver.clauses_deleted > 0

    def test_glue_clauses_never_deleted(self):
        """With the keep threshold above every clause's LBD, reduction
        passes run but delete nothing."""
        num_vars, clauses = pigeonhole(5, 4)
        solver = CdclSolver(
            num_vars,
            clauses,
            config=SolverConfig(
                luby_unit=4, reduce_interval=5, reduce_keep_lbd=10_000
            ),
        )
        assert not solver.solve().satisfiable
        assert solver.db_reductions > 0
        assert solver.clauses_deleted == 0

    def test_reason_clauses_locked(self):
        """A learned clause serving as the reason of a live assignment
        must survive reduction even when its LBD marks it deletable."""
        solver = CdclSolver(
            4,
            config=SolverConfig(
                reduce_db=True, reduce_fraction=1.0, reduce_keep_lbd=0
            ),
        )
        locked = [1, 2]
        disposable = [3, 4]
        for clause in (locked, disposable):
            solver.learned.append(clause)
            solver._lbd[id(clause)] = 5
            solver._watch(clause[0], clause)
            solver._watch(clause[1], clause)
        solver.reason[1] = locked
        solver._reduce_db()
        assert locked in solver.learned
        assert disposable not in solver.learned
        assert all(
            disposable not in watchers for watchers in solver.watches.values()
        )

    def test_reduction_does_not_change_answers(self):
        rng = random.Random(4242)
        aggressive = SolverConfig(luby_unit=2, reduce_interval=3)
        for _ in range(20):
            num_vars = rng.randint(6, 14)
            clauses = random_cnf(rng, num_vars, rng.randint(10, 60))
            reference = solve_cnf(num_vars, clauses)
            reduced = CdclSolver(num_vars, clauses, config=aggressive).solve()
            assert reduced.satisfiable == reference.satisfiable
            if reduced.satisfiable:
                check_model(clauses, reduced.model)


class TestConfigEquivalence:
    """Every heuristic configuration is a complete decision procedure:
    all of them must agree on satisfiability, and every model returned
    must actually satisfy the formula."""

    CONFIGS = (
        SolverConfig(),
        SolverConfig.legacy(),
        SolverConfig(restart="none"),
        SolverConfig(restart="geometric", restart_base=8),
        SolverConfig(luby_unit=1, reduce_interval=4),
        SolverConfig(var_decay=0.6),
    )

    def test_verdicts_agree_on_random_cnfs(self):
        rng = random.Random(1717)
        for _ in range(15):
            num_vars = rng.randint(6, 12)
            clauses = random_cnf(rng, num_vars, rng.randint(8, 50))
            verdicts = []
            for config in self.CONFIGS:
                result = CdclSolver(num_vars, clauses, config=config).solve()
                verdicts.append(result.satisfiable)
                if result.satisfiable:
                    check_model(clauses, result.model)
            assert len(set(verdicts)) == 1, f"configs disagree on {clauses}"

    def test_verdicts_agree_under_assumptions(self):
        rng = random.Random(8888)
        for _ in range(10):
            num_vars = rng.randint(6, 10)
            clauses = random_cnf(rng, num_vars, rng.randint(8, 40))
            assumed = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 2)
            ]
            verdicts = []
            for config in self.CONFIGS:
                solver = CdclSolver(num_vars, clauses, config=config)
                result = solver.solve(assumptions=assumed)
                verdicts.append(result.satisfiable)
                if result.satisfiable:
                    check_model(clauses, result.model)
                    for lit in assumed:
                        assert result.model[abs(lit)] == (lit > 0)
            assert len(set(verdicts)) == 1

    def test_upgraded_matches_legacy_on_pigeonhole(self):
        num_vars, clauses = pigeonhole(4, 3)
        modern = CdclSolver(num_vars, clauses, config=SolverConfig()).solve()
        legacy = CdclSolver(
            num_vars, clauses, config=SolverConfig.legacy()
        ).solve()
        assert not modern.satisfiable
        assert not legacy.satisfiable
