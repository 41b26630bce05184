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


def scan_pick(solver: CdclSolver) -> int:
    """The reference branching rule: maximum activity among unassigned
    variables, lowest index among ties, 0 when none is left."""
    best_var, best_activity = 0, -1.0
    for variable in range(1, solver.num_vars + 1):
        if solver._values[variable] is None and solver.activity[variable] > best_activity:
            best_var, best_activity = variable, solver.activity[variable]
    return best_var


class TestBranchHeap:
    def test_pick_follows_activity_across_rescale(self):
        solver = CdclSolver(config=SolverConfig(var_decay=0.5))
        solver.ensure_vars(3)
        solver._bump(3)
        for _ in range(400):
            solver._decay_activity()
        solver._bump(2)  # crosses 1e100: every activity is rescaled
        assert solver.activity_inc < 1e100
        assert solver._pick_branch() == 2

    def test_pick_matches_a_linear_scan(self):
        rng = random.Random(5)
        solver = CdclSolver(config=SolverConfig(var_decay=0.5))
        solver.ensure_vars(30)
        level = 0
        for _ in range(4_000):
            roll = rng.random()
            if roll < 0.4:
                solver._bump(rng.randint(1, solver.num_vars))
                solver._decay_activity()
            elif roll < 0.5 and level:
                level = rng.randrange(level)
                solver._backtrack(level)
            elif roll < 0.51:
                solver.ensure_vars(solver.num_vars + 1)
            else:
                expected = scan_pick(solver)
                variable = solver._pick_branch()
                assert variable == expected
                if variable == 0:
                    solver._backtrack(0)
                    level = 0
                    continue
                level += 1
                solver._enqueue(variable if rng.random() < 0.5 else -variable, None, level)


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


def random_3sat(seed: int, num_vars: int, num_clauses: int):
    """Uniform random 3-SAT: three distinct variables per clause."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def trajectory(solver: CdclSolver, result):
    """Everything a search decision can move, after one ``solve()``."""
    model = ""
    if result.satisfiable:
        model = hex(sum(1 << (v - 1) for v, value in result.model.items() if value))
    return (
        result.satisfiable,
        result.conflicts,
        solver.restarts,
        solver.learned_count,
        solver.clauses_deleted,
        model,
    )


def incremental_trajectory(solver: CdclSolver):
    """Assumption queries interleaved with clause and variable growth,
    including an assumption-UNSAT answer followed by a SAT one."""
    rng = random.Random(99)
    out = [trajectory(solver, solver.solve(assumptions=[1, -2, 3]))]
    for clause in random_3sat(7, 60, 30):
        solver.add_clause(clause)
    out.append(trajectory(solver, solver.solve(assumptions=[-4, 6, -9])))
    out.append(trajectory(solver, solver.solve()))
    for _ in range(15):
        chosen = rng.sample(range(1, 67), 3)
        solver.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    out.append(trajectory(solver, solver.solve(assumptions=[61, -63, 66])))
    out.append(trajectory(solver, solver.solve(assumptions=[-61])))
    for clause in random_3sat(8, 66, 25):
        solver.add_clause(clause)
    out.append(trajectory(
        solver, solver.solve(assumptions=[5, -7, 11, -13, 17, -19])
    ))
    out.append(trajectory(solver, solver.solve()))
    return out


class TestPinnedTrajectory:
    """The engine's search, not just its verdicts, is fixed.

    Recorded from the scan-based reference engine (linear branching scan,
    per-visit literal lookups, rebuilt watch lists); any rewrite of the
    solver's data structures must reproduce every conflict count, restart,
    learned clause, deletion and model exactly.  ``churn`` drives the
    paths the defaults rarely reach on small inputs: the 1e100 activity
    rescale (decay 0.5), frequent restarts and learned-clause deletion.
    Random 3-SAT sits at clause/variable ratio 4.2, the hard region.
    """

    CONFIGS = {
        "default": SolverConfig(),
        "legacy": SolverConfig.legacy(),
        "churn": SolverConfig(var_decay=0.5, luby_unit=4, reduce_interval=20),
    }

    EXPECTED = {
        "default": {
            "3sat0": (False, 1712, 11, 1711, 0, ""),
            "3sat1": (True, 1584, 9, 1584, 0, "0xe0134131edc7dc5892e0fdbcacbd06"),
            "3sat2": (False, 1207, 7, 1206, 0, ""),
            "3sat3": (True, 286, 2, 286, 0, "0x747bc12039592a8566cf5ced47e6f9"),
            "php54": (False, 32, 0, 31, 0, ""),
            "incremental": [
                (True, 6, 0, 6, 0, "0xfe994f6cb8ad5fd"),
                (True, 8, 0, 14, 0, "0xb2ceaf5290e9cf4"),
                (True, 7, 0, 21, 0, "0xf6d90f4e90ed5fc"),
                (True, 34, 0, 55, 0, "0x3bb27e8f4290c9cf0"),
                (True, 9, 0, 64, 0, "0x3af6596b4fb8f54d9"),
                (False, 4, 0, 68, 0, ""),
                (True, 67, 0, 135, 0, "0x33baddee49b6c4cf2"),
            ],
        },
        "legacy": {
            "3sat0": (False, 1653, 7, 1652, 0, ""),
            "3sat1": (True, 1457, 7, 1457, 0, "0xe0134131edc7dc5892e0fdbcacbd06"),
            "3sat2": (False, 1186, 7, 1185, 0, ""),
            "3sat3": (True, 219, 2, 219, 0, "0x747bc12039592a8566cf5ced47e6f9"),
            "php54": (False, 32, 0, 31, 0, ""),
            "incremental": [
                (True, 6, 0, 6, 0, "0xfe994f6cb8ad5fd"),
                (True, 8, 0, 14, 0, "0xb2ceaf5290e9cf4"),
                (True, 7, 0, 21, 0, "0xf6d90f4e90ed5fc"),
                (True, 34, 0, 55, 0, "0x3bb26e8f4290e9cf0"),
                (True, 13, 0, 68, 0, "0x3a3e894f2caf8a7f9"),
                (False, 3, 0, 71, 0, ""),
                (True, 43, 0, 114, 0, "0x33baddef49b2c4cf2"),
            ],
        },
        "churn": {
            "3sat0": (False, 5632, 380, 5631, 4937, ""),
            "3sat1": (True, 5489, 379, 5489, 4912, "0xe0134131edc7dc5892e0fdbcacbd06"),
            "3sat2": (False, 3626, 254, 3625, 3276, ""),
            "3sat3": (True, 628, 61, 628, 471, "0x747bc12039592a8566cf5ced47e6f9"),
            "php54": (False, 40, 6, 39, 3, ""),
            "incremental": [
                (True, 11, 2, 11, 0, "0xfe994f6cb8ad5fd"),
                (True, 1, 2, 12, 0, "0xbbddef49b2c5cf2"),
                (True, 1, 2, 13, 0, "0x3caeff0cf7dbbe9"),
                (True, 17, 5, 30, 10, "0x3b3dae7b0cfddbbe9"),
                (True, 5, 6, 35, 10, "0x3e3dae7b0cfddbbe9"),
                (False, 4, 7, 39, 10, ""),
                (True, 6, 8, 45, 10, "0x33baddef49b2c4cf2"),
            ],
        },
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_3sat(self, name, seed):
        solver = CdclSolver(120, random_3sat(seed, 120, 504), config=self.CONFIGS[name])
        got = trajectory(solver, solver.solve())
        assert got == self.EXPECTED[name][f"3sat{seed}"]

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_pigeonhole(self, name):
        num_vars, clauses = pigeonhole(5, 4)
        solver = CdclSolver(num_vars, clauses, config=self.CONFIGS[name])
        got = trajectory(solver, solver.solve())
        assert got == self.EXPECTED[name]["php54"]

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_incremental_sequence(self, name):
        solver = CdclSolver(60, random_3sat(3, 60, 180), config=self.CONFIGS[name])
        assert incremental_trajectory(solver) == self.EXPECTED[name]["incremental"]
