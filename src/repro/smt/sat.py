"""A CDCL SAT solver with two-watched-literal propagation.

This is the decision procedure under every symbolic query in the
reproduction: first-UIP clause learning, VSIDS-style activity with
configurable decay, Luby-sequence (or legacy geometric) restarts,
LBD-based learned-clause database reduction, and non-chronological
backjumping.  It is deliberately compact — the paper's tractability
tricks (lane scaling) keep our CNF instances small enough that a clean
Python CDCL suffices.

The solver is *incremental*: clauses and variables may be added between
``solve()`` calls, and ``solve(assumptions=...)`` decides satisfiability
under a set of assumption literals without asserting them permanently.
Learned clauses and level-0 implications are retained across calls (they
are consequences of the clause database alone, so they stay valid no
matter which assumptions the next query carries), which is what makes
repeated CEGIS verification queries against one specification cheap: the
solver re-learns nothing about the shared circuit.

Heuristic behaviour is captured by :class:`SolverConfig`;
:meth:`SolverConfig.legacy` reproduces the exact pre-upgrade behaviour
(geometric restarts on the total-conflict count, no clause deletion, the
old implicit 1.05 activity ramp) as the reference the CDCL tests compare
against.

Data structures (a pure implementation choice: the search — every
decision, conflict, learned clause and model — is the one a linear
branching scan would produce, which ``tests/test_sat_cdcl.py`` pins):

* literal values live in one list indexed by the literal itself — a
  negative literal indexes from the end, so ``values[lit]`` needs no
  ``abs()`` or sign test on the propagation path;
* the branching order is a lazy binary heap of ``(-activity, var)``:
  stale and assigned entries are skipped when popped, unassigned
  variables are re-pushed on backtrack, and the heap is rebuilt on the
  activity rescale and once stale entries pile up — the pop is the
  scan's "maximum activity, lowest index among ties";
* watch lists are compacted in place during propagation;
* conflict analysis marks variables in one persistent array and clears
  only what it marked.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush


def luby(i: int) -> int:
    """The ``i``-th element (1-indexed) of the Luby restart sequence:
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...

    The sequence is self-similar: after each power-of-two block the next
    element doubles the block's maximum, which gives restarts the
    log-optimal worst case for Las Vegas algorithms (Luby et al. 1993).
    """
    if i < 1:
        raise ValueError("luby sequence is 1-indexed")
    while True:
        # Smallest complete block (size 2^k - 1) containing i.
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        # Interior of the block: self-similar prefix of size 2^(k-1) - 1.
        i -= (1 << (k - 1)) - 1


@dataclass(frozen=True)
class SolverConfig:
    """Heuristic knobs for one :class:`CdclSolver` instance.

    The defaults are the modern core (Luby restarts, VSIDS decay, LBD
    clause-database reduction); :meth:`legacy` pins every knob to the
    pre-upgrade solver so the two can be diffed.
    """

    # Per-conflict VSIDS decay: the activity increment grows by
    # ``1 / var_decay`` after every conflict, so recently-bumped
    # variables dominate older ones.
    var_decay: float = 0.95
    # Restart policy: "luby" (unit-scaled Luby sequence on the
    # conflicts-since-restart count), "geometric" (legacy: total-conflict
    # thresholds growing by ``restart_growth``), or "none".
    restart: str = "luby"
    luby_unit: int = 100
    restart_base: int = 100
    restart_growth: float = 1.5
    # LBD-based learned-clause DB reduction: when the live learned set
    # exceeds a growing threshold (``reduce_interval`` more clauses per
    # reduction), the worst ``reduce_fraction`` of deletable clauses is
    # unlinked.  Glue clauses (LBD <= reduce_keep_lbd) and clauses locked
    # as the reason of a current assignment are never deleted.
    reduce_db: bool = True
    reduce_interval: int = 2_000
    reduce_keep_lbd: int = 2
    reduce_fraction: float = 0.5

    @classmethod
    def legacy(cls) -> "SolverConfig":
        """The exact pre-upgrade heuristics (PR 3 solver)."""
        return cls(
            var_decay=1.0 / 1.05,
            restart="geometric",
            reduce_db=False,
        )


@dataclass
class SatResult:
    satisfiable: bool
    # Model maps variable -> bool for satisfiable results.
    model: dict[int, bool] = field(default_factory=dict)
    # Conflicts spent answering this query.
    conflicts: int = 0


class CdclSolver:
    """CDCL over a growable clause database.

    One-shot use is unchanged: ``CdclSolver(n, clauses).solve()``.
    Incremental use interleaves :meth:`ensure_vars` / :meth:`add_clause`
    with ``solve(assumptions=[...])`` calls on one instance.
    """

    def __init__(
        self,
        num_vars: int = 0,
        clauses: Iterable[Sequence[int]] = (),
        config: SolverConfig | None = None,
    ) -> None:
        self.config = config or SolverConfig()
        self.num_vars = 0
        # values[lit]: None unassigned, else the literal's truth value.
        # Length 2 * capacity + 1: positive literals at 1..capacity,
        # literal -v at index len - v (Python's negative indexing).
        self._capacity = 0
        self._values: list[bool | None] = [None]
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self._seen: list[bool] = [False]
        # Branching heap of (-activity, var); see the module docstring.
        self._heap: list[tuple[float, int]] = []
        self.trail: list[int] = []
        self.activity_inc = 1.0
        # Problem clauses (incl. incremental additions): never deleted.
        self.clauses: list[list[int]] = []
        # Learned clauses: redundant consequences, deletable at will.
        self.learned: list[list[int]] = []
        # Learned-clause metadata keyed by clause identity.
        self._lbd: dict[int, int] = {}
        self._birth: dict[int, int] = {}
        self.watches: dict[int, list[list[int]]] = {}
        self._empty_clause = False
        self._units: list[int] = []
        self._prop_head = 0
        # Permanently unsatisfiable (conflict at level 0, no assumptions).
        self._unsat = False
        # Cumulative accounting across all solve() calls.
        self.learned_count = 0
        self.total_conflicts = 0
        self.restarts = 0
        self.db_reductions = 0
        self.clauses_deleted = 0
        self._reduce_limit = self.config.reduce_interval
        self.ensure_vars(num_vars)
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable space to at least ``num_vars`` variables."""
        if num_vars <= self.num_vars:
            return
        if num_vars > self._capacity:
            # Re-lay the literal array out at (at least) double capacity.
            old, old_capacity = self._values, self._capacity
            capacity = max(num_vars, 2 * old_capacity)
            values: list[bool | None] = [None] * (2 * capacity + 1)
            if old_capacity:
                values[1 : old_capacity + 1] = old[1 : old_capacity + 1]
                values[-old_capacity:] = old[-old_capacity:]
            self._values, self._capacity = values, capacity
        grow = num_vars - self.num_vars
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self._seen.extend([False] * grow)
        for variable in range(self.num_vars + 1, num_vars + 1):
            heappush(self._heap, (-0.0, variable))
        self.num_vars = num_vars

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add one clause; safe to call between ``solve()`` calls."""
        # Dedup literals; drop tautologies.
        seen: set[int] = set()
        unique: list[int] = []
        for lit in lits:
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                unique.append(lit)
        if not unique:
            self._empty_clause = True
            return
        top = max(abs(lit) for lit in unique)
        if top > self.num_vars:
            self.ensure_vars(top)
        if len(unique) == 1:
            self._units.append(unique[0])
            return
        self.clauses.append(unique)
        self._watch(unique[0], unique)
        self._watch(unique[1], unique)

    def _watch(self, lit: int, clause: list[int]) -> None:
        self.watches.setdefault(lit, []).append(clause)

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None, level: int) -> None:
        variable = abs(lit)
        self._values[lit] = True
        self._values[-lit] = False
        self.level[variable] = level
        self.reason[variable] = reason
        self.trail.append(lit)

    def _propagate(self, level: int) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self.trail
        values = self._values
        watches = self.watches
        head = self._prop_head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watch_list = watches.get(falsified)
            if not watch_list:
                continue
            # Compact in place: clauses that stay watched on ``falsified``
            # are copied down to ``kept``; moved ones are dropped.
            kept = 0
            for index, clause in enumerate(watch_list):
                # Ensure the falsified literal is in slot 1.
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                value = values[first]
                if value is True:
                    watch_list[kept] = clause
                    kept += 1
                    continue
                # Look for a replacement watch.
                for slot in range(2, len(clause)):
                    other = clause[slot]
                    if values[other] is not False:
                        clause[1] = other
                        clause[slot] = falsified
                        watches.setdefault(other, []).append(clause)
                        break
                else:
                    watch_list[kept] = clause
                    kept += 1
                    if value is False:
                        # Conflict: the unvisited tail stays as it is.
                        del watch_list[kept : index + 1]
                        self._prop_head = head
                        return clause
                    self._enqueue(first, clause, level)
            del watch_list[kept:]
        self._prop_head = head
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump(self, variable: int) -> None:
        self.activity[variable] += self.activity_inc
        if self.activity[variable] > 1e100:
            self._rescale()
        elif self._values[variable] is None:
            heappush(self._heap, (-self.activity[variable], variable))

    def _rescale(self) -> None:
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self.activity_inc *= 1e-100
        # Every key changed, so the branching heap is rebuilt.
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        values, activity = self._values, self.activity
        self._heap[:] = [
            (-activity[v], v)
            for v in range(1, self.num_vars + 1)
            if values[v] is None
        ]
        heapify(self._heap)

    def _decay_activity(self) -> None:
        """One conflict's worth of VSIDS decay (increment growth)."""
        self.activity_inc /= self.config.var_decay

    def _analyze(self, conflict: list[int], level: int) -> tuple[list[int], int]:
        learned: list[int] = []
        seen = self._seen
        marked: list[int] = []
        counter = 0
        lit = 0
        clause: list[int] | None = conflict
        trail_index = len(self.trail) - 1
        while True:
            assert clause is not None
            for clause_lit in clause:
                variable = abs(clause_lit)
                if clause_lit == lit or seen[variable]:
                    continue
                seen[variable] = True
                marked.append(variable)
                self._bump(variable)
                if self.level[variable] == level:
                    counter += 1
                elif self.level[variable] > 0:
                    learned.append(clause_lit)
            # Walk the trail backwards to the next seen literal.
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            lit = self.trail[trail_index]
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[abs(lit)]
        # Reset only what this conflict marked; the array is reused.
        for variable in marked:
            seen[variable] = False
        learned.insert(0, -lit)
        if len(learned) == 1:
            return learned, 0
        backjump = max(self.level[abs(l)] for l in learned[1:])
        return learned, backjump

    def _clause_lbd(self, clause: list[int]) -> int:
        """Literal block distance: distinct decision levels in the clause."""
        return len(
            {self.level[abs(lit)] for lit in clause if self.level[abs(lit)] > 0}
        )

    def _backtrack(self, target_level: int) -> None:
        while self.trail and self.level[abs(self.trail[-1])] > target_level:
            lit = self.trail.pop()
            variable = abs(lit)
            self._values[lit] = self._values[-lit] = None
            self.reason[variable] = None
            heappush(self._heap, (-self.activity[variable], variable))
        self._prop_head = len(self.trail)

    def _pick_branch(self) -> int:
        """The unassigned variable of maximum activity, lowest index among
        ties; 0 once every variable is assigned."""
        heap = self._heap
        if len(heap) > 2 * self.num_vars + 64:
            # Shed the stale and duplicate entries backtracking piles up.
            self._rebuild_heap()
        values, activity = self._values, self.activity
        while heap:
            key, variable = heappop(heap)
            if values[variable] is None and key == -activity[variable]:
                return variable
        return 0

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------

    def _maybe_reduce_db(self) -> None:
        """Reduce when the live learned set outgrows its (growing) cap.

        Only ever called with the solver at decision level 0, so the
        locked set is exactly the reasons of retained level-0
        implications.
        """
        if not self.config.reduce_db:
            return
        if len(self.learned) < self._reduce_limit:
            return
        self._reduce_db()
        self._reduce_limit += self.config.reduce_interval

    def _reduce_db(self) -> None:
        keep_lbd = self.config.reduce_keep_lbd
        locked = {id(r) for r in self.reason if r is not None}
        deletable = [
            clause
            for clause in self.learned
            if id(clause) not in locked
            and self._lbd.get(id(clause), len(clause)) > keep_lbd
        ]
        # Best first: low LBD, then recent.  The tail is dropped.
        deletable.sort(
            key=lambda c: (
                self._lbd.get(id(c), len(c)),
                -self._birth.get(id(c), 0),
            )
        )
        drop_count = int(len(deletable) * self.config.reduce_fraction)
        if drop_count == 0:
            self.db_reductions += 1
            return
        dropped = {id(c) for c in deletable[len(deletable) - drop_count:]}
        self.learned = [c for c in self.learned if id(c) not in dropped]
        for lit in list(self.watches):
            watch_list = self.watches[lit]
            if any(id(c) in dropped for c in watch_list):
                self.watches[lit] = [
                    c for c in watch_list if id(c) not in dropped
                ]
        for cid in dropped:
            self._lbd.pop(cid, None)
            self._birth.pop(cid, None)
        self.clauses_deleted += drop_count
        self.db_reductions += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(
        self,
        max_conflicts: int | None = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """Decide the database, optionally under assumption literals.

        Without assumptions the answer is permanent; with assumptions an
        UNSAT answer only refutes the database *plus the assumptions*, and
        the solver stays usable (all learned clauses are assumption-free
        consequences of the database).
        """
        if self._empty_clause or self._unsat:
            return SatResult(False)
        if assumptions:
            self.ensure_vars(max(abs(lit) for lit in assumptions))
        # Retract everything above level 0; level-0 implications persist.
        self._backtrack(0)
        self._maybe_reduce_db()
        # Re-run propagation over the whole level-0 trail so that clauses
        # added since the last call see the retained assignments.
        self._prop_head = 0
        values = self._values
        for lit in self._units:
            current = values[lit]
            if current is False:
                self._unsat = True
                return SatResult(False)
            if current is None:
                self._enqueue(lit, None, 0)
        if self._propagate(0) is not None:
            self._unsat = True
            return SatResult(False)

        config = self.config
        level = 0
        conflicts = 0
        since_restart = 0
        restart_count = 0
        if config.restart == "geometric":
            restart_limit: int | None = config.restart_base
        elif config.restart == "luby":
            restart_limit = luby(restart_count + 1) * config.luby_unit
        else:
            restart_limit = None
        while True:
            # Decide the next assumption first; branch freely only once
            # every assumption is satisfied by the current assignment.
            branch_lit = 0
            failed_assumption = False
            for lit in assumptions:
                value = values[lit]
                if value is False:
                    failed_assumption = True
                    break
                if value is None:
                    branch_lit = lit
                    break
            if failed_assumption:
                self.total_conflicts += conflicts
                return SatResult(False, conflicts=conflicts)
            if branch_lit == 0:
                branch_var = self._pick_branch()
                if branch_var == 0:
                    model = {
                        v: values[v] is True for v in range(1, self.num_vars + 1)
                    }
                    self.total_conflicts += conflicts
                    return SatResult(True, model, conflicts=conflicts)
                branch_lit = branch_var
            level += 1
            self._enqueue(branch_lit, None, level)
            while True:
                conflict = self._propagate(level)
                if conflict is None:
                    break
                conflicts += 1
                since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    self.total_conflicts += conflicts
                    # Leave the solver reusable after a budget blowout.
                    self._backtrack(0)
                    raise SolverBudgetExceeded(conflicts)
                if level == 0:
                    self._unsat = True
                    self.total_conflicts += conflicts
                    return SatResult(False, conflicts=conflicts)
                learned, backjump = self._analyze(conflict, level)
                self._backtrack(backjump)
                level = backjump
                self._decay_activity()
                self.learned_count += 1
                if len(learned) == 1:
                    self._units.append(learned[0])
                    if values[learned[0]] is False:
                        # Contradicts a retained level-0 implication only
                        # when the database itself is unsatisfiable.
                        if self.level[abs(learned[0])] == 0:
                            self._unsat = True
                            self.total_conflicts += conflicts
                            return SatResult(False, conflicts=conflicts)
                        self._backtrack(0)
                        level = 0
                    if values[learned[0]] is None:
                        self._enqueue(learned[0], None, 0)
                else:
                    self.learned.append(learned)
                    self._lbd[id(learned)] = self._clause_lbd(learned)
                    self._birth[id(learned)] = self.learned_count
                    self._watch(learned[0], learned)
                    self._watch(learned[1], learned)
                    self._enqueue(learned[0], learned, level)
                restart_now = False
                if restart_limit is not None and level > 0:
                    if config.restart == "geometric":
                        # Legacy semantics: thresholds on the query's total
                        # conflict count, growing geometrically.
                        if conflicts >= restart_limit:
                            restart_limit = int(
                                restart_limit * config.restart_growth
                            )
                            restart_now = True
                    elif since_restart >= restart_limit:
                        restart_count += 1
                        restart_limit = (
                            luby(restart_count + 1) * config.luby_unit
                        )
                        restart_now = True
                if restart_now:
                    self.restarts += 1
                    since_restart = 0
                    self._backtrack(0)
                    level = 0
                    self._maybe_reduce_db()
                    break


class SolverBudgetExceeded(Exception):
    """Raised when a query exceeds its conflict budget (treated as timeout)."""

    def __init__(self, conflicts: int) -> None:
        super().__init__(f"SAT query exceeded {conflicts} conflicts")
        self.conflicts = conflicts


def solve_cnf(
    num_vars: int,
    clauses: list[tuple[int, ...]],
    max_conflicts: int | None = None,
    config: SolverConfig | None = None,
) -> SatResult:
    """Convenience one-shot entry point."""
    return CdclSolver(num_vars, clauses, config=config).solve(max_conflicts)
