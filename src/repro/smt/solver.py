"""High-level decision interface: equivalence checking.

Strategy ladder, cheapest first — mirroring how Hydride keeps its Rosette
queries tractable:

1. *structural*: both terms normalise to the identical tree,
2. *exhaustive* lane classes: a checker primed with a lane width
   (:meth:`EquivalenceChecker.prime`) splits the pair into output lanes
   and abstracts each lane's input reads into fresh variables, giving
   one abstract pair per symmetry class.  Every class of at most 16
   input bits is decided by simulating its blasted miter on all of its
   inputs at once (:mod:`repro.smt.simulate`).  This sits ahead of the
   random rungs and of the size / wide-multiply gate below because it
   is complete, costs milliseconds, and its cost depends on the class,
   not on the pair: an 8-bit multiply lane is as cheap as an 8-bit add,
3. *fuzz*: a handful of random inputs finds a counterexample quickly,
4. *exhaustive*: the symbolic input space is tiny (after lane scaling it
   usually is), so enumerate it completely,
5. *sat*: bit-blast ``a != b`` and run CDCL.  A lane-primed checker
   first proves, one CDCL query per class, the classes rung 2 did not;
   anything short of a proof of every class runs the whole-vector query
   instead,
6. *probabilistic*: for operators with no circuit encoding (division,
   popcount), a large randomized battery; documented as incomplete.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.bitvector.bv import BitVector
from repro.perf import global_counters, phase_timer
from repro.smt.bitblast import BitBlaster, NotBitblastable
from repro.smt.eval import evaluate
from repro.smt.sat import CdclSolver, SatResult, SolverBudgetExceeded
from repro.smt.simplify import simplify, simplify_extract, substitute
from repro.smt.simulate import simulate_equal
from repro.smt.terms import App, Term, Var, apply_op, var

# Input spaces up to this many total bits are enumerated exhaustively.
EXHAUSTIVE_BIT_LIMIT = 14

# An incremental context whose CNF outgrows this many variables is
# replaced by a fresh one.
CONTEXT_MAX_VARS = 400_000

# Random samples tried before falling through to heavier methods.
QUICK_FUZZ_SAMPLES = 48
PROBABILISTIC_SAMPLES = 512


class SolverTimeout(Exception):
    """A query exceeded its conflict budget."""


@dataclass
class CheckResult:
    """Outcome of an equivalence query."""

    equivalent: bool
    counterexample: dict[str, BitVector] | None
    method: str

    def __bool__(self) -> bool:
        return self.equivalent


def _merged_variables(a: Term, b: Term) -> dict[str, int]:
    variables = dict(a.variables())
    for name, width in b.variables().items():
        if variables.setdefault(name, width) != width:
            raise ValueError(f"variable {name!r} has conflicting widths")
    return variables


def _random_env(
    variables: dict[str, int], rng: random.Random
) -> dict[str, BitVector]:
    env: dict[str, BitVector] = {}
    for name, width in variables.items():
        # Mix uniform values with boundary-ish values: all-zeros, all-ones,
        # sign-boundary patterns shake out saturation/overflow bugs.
        choice = rng.randrange(6)
        if choice == 0:
            value = 0
        elif choice == 1:
            value = (1 << width) - 1
        elif choice == 2:
            value = 1 << (width - 1)
        else:
            value = rng.getrandbits(width)
        env[name] = BitVector(value, width)
    return env


# ----------------------------------------------------------------------
# Lane-symmetric proofs
# ----------------------------------------------------------------------

# One symmetry class: an (abstract spec lane, abstract candidate lane)
# pair.  Terms are hash-consed, so equal classes are equal tuples.
LaneClass = tuple[Term, Term]


def split_lanes(term: Term, lane_width: int) -> list[Term] | None:
    """``term``'s ``lane_width``-bit output slices, lowest lane first, or
    None when its width is not a whole number of lanes.

    ``term`` must be simplified.  The top-level ``concat`` chain is
    flattened once; only a part that spans several lanes (or straddles a
    lane boundary) is cut, one extract per piece, so the split stays
    linear in the size of the term.
    """
    if lane_width <= 0 or term.width % lane_width:
        return None
    parts: list[Term] = []  # high part first
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, App) and node.op == "concat":
            high_part, low_part = node.args
            stack.append(low_part)
            stack.append(high_part)
        else:
            parts.append(node)
    lanes: list[Term] = []
    pieces: list[Term] = []  # the current lane's pieces, low first
    filled = 0
    for part in reversed(parts):
        low = 0
        while low < part.width:
            take = min(part.width - low, lane_width - filled)
            if take == part.width:
                pieces.append(part)
            else:
                pieces.append(simplify_extract(part, low + take - 1, low))
            low += take
            filled += take
            if filled == lane_width:
                lane = pieces[0]
                for piece in pieces[1:]:
                    lane = apply_op("concat", [piece, lane])
                lanes.append(lane)
                pieces, filled = [], 0
    return lanes


def _is_input_read(node: Term) -> bool:
    """A ``Var``, or an ``extract`` of one."""
    return isinstance(node, Var) or (
        isinstance(node, App)
        and node.op == "extract"
        and isinstance(node.args[0], Var)
    )


def _abstract_lane_pair(
    spec_lane: Term, candidate_lane: Term
) -> tuple[LaneClass, dict[str, Term]]:
    """Replace every input read of the pair with a fresh variable.

    Fresh variables are numbered by first occurrence over the spec lane,
    then the candidate lane; the same read gets the same variable.
    Returns the abstract pair and the bindings (fresh name -> read) that
    map it back onto the concrete lane.
    """
    reads: dict[Term, Term] = {}
    bindings: dict[str, Term] = {}
    memo: dict[Term, Term] = {}

    def run(node: Term) -> Term:
        hit = memo.get(node)
        if hit is not None:
            return hit
        if _is_input_read(node):
            fresh = reads.get(node)
            if fresh is None:
                # '@' never occurs in an input name.
                name = f"@{len(reads)}"
                fresh = reads[node] = var(name, node.width)
                bindings[name] = node
            result = fresh
        elif isinstance(node, App):
            result = apply_op(node.op, [run(a) for a in node.args], node.params)
        else:
            result = node
        memo[node] = result
        return result

    abstract = (run(spec_lane), run(candidate_lane))
    return abstract, bindings


def lane_classes(
    candidate: Term, spec: Term, lane_width: int
) -> tuple[list[LaneClass], int] | None:
    """The distinct lane classes of a simplified pair, in first-lane
    order, and the number of lanes; None when the pair does not split.

    Every lane's abstraction is checked, never assumed: substituting the
    lane's reads back into its abstract pair must give exactly that
    lane's two terms.  A proof of an abstract pair ranges over
    independent values of its fresh variables, so it covers every lane
    that is an instance of it — overlapping reads included.
    """
    spec_lanes = split_lanes(spec, lane_width)
    candidate_lanes = split_lanes(candidate, lane_width)
    if spec_lanes is None or candidate_lanes is None:
        return None
    classes: dict[LaneClass, None] = {}
    for spec_lane, candidate_lane in zip(spec_lanes, candidate_lanes):
        abstract, bindings = _abstract_lane_pair(spec_lane, candidate_lane)
        if (
            substitute(abstract[0], bindings) != spec_lane
            or substitute(abstract[1], bindings) != candidate_lane
        ):
            return None
        classes[abstract] = None
    return list(classes), len(spec_lanes)


class IncrementalSatContext:
    """One persistent blaster/solver pair amortised over many queries.

    CEGIS verifies a stream of candidates against a single specification.
    The spec's circuit only gets blasted once (the blaster's structural
    cache is keyed on term uids), and the solver keeps its clause database
    and learned clauses between queries — each per-candidate assertion is
    guarded by a fresh *activation literal* passed as an assumption, then
    retired with a unit clause so it can never constrain later queries.
    """

    def __init__(self) -> None:
        self.blaster = BitBlaster()
        self.solver = CdclSolver()
        self.queries = 0
        # How many of the builder's clauses have been fed to the solver.
        self._fed = 0

    def oversized(self) -> bool:
        """True once retired queries have bloated the database enough that
        starting over is cheaper than dragging the dead weight along."""
        return self.blaster.cnf.num_vars > CONTEXT_MAX_VARS

    def _sync(self) -> None:
        cnf = self.blaster.cnf
        self.solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses[self._fed :]:
            self.solver.add_clause(clause)
        self._fed = len(cnf.clauses)

    def prime(self, spec: Term) -> None:
        """Blast ``spec`` before anything else touches the builder.

        The spec's Tseitin variables then take the lowest indices, and
        :class:`~repro.smt.sat.CdclSolver` breaks activity ties by lowest
        index, so priming fixes the variable layout — and with it the
        search trajectory — of every later query.
        """
        if self.queries or self._fed:
            raise RuntimeError("prime() must precede all queries")
        with phase_timer("blast"):
            self.blaster.blast(spec)
            self._sync()

    def check_not_equal(
        self, a: Term, b: Term, max_conflicts: int | None = None
    ) -> SatResult:
        """SAT iff some input makes ``a`` and ``b`` differ.

        Raises :class:`NotBitblastable` / :class:`SolverBudgetExceeded`;
        the context stays usable afterwards.
        """
        perf = global_counters()
        with phase_timer("blast"):
            bits_a = self.blaster.blast(a)
            bits_b = self.blaster.blast(b)
            cnf = self.blaster.cnf
            diff = [cnf.gate_xor(x, y) for x, y in zip(bits_a, bits_b)]
            any_diff = cnf.gate_big_or(diff)
            activation = cnf.new_var()
            cnf.add_clause([-activation, any_diff])
            self._sync()
        self.queries += 1
        perf.sat_queries += 1
        learned_before = self.solver.learned_count
        restarts_before = self.solver.restarts
        deleted_before = self.solver.clauses_deleted
        try:
            with phase_timer("sat"):
                result = self.solver.solve(
                    max_conflicts, assumptions=(activation,)
                )
        except SolverBudgetExceeded as exc:
            perf.sat_conflicts += exc.conflicts
            raise
        finally:
            # Retire the guard: later queries must not inherit this one's
            # difference assertion.
            self.solver.add_clause([-activation])
            perf.learned_clauses_retained += (
                self.solver.learned_count - learned_before
            )
            perf.sat_restarts += self.solver.restarts - restarts_before
            perf.sat_clauses_deleted += (
                self.solver.clauses_deleted - deleted_before
            )
        perf.sat_conflicts += result.conflicts
        return result


class EquivalenceChecker:
    """Reusable checker carrying an RNG and a conflict budget."""

    def __init__(
        self,
        seed: int = 0,
        max_conflicts: int | None = 200_000,
        sat_node_limit: int = 6_000,
        probabilistic_samples: int = PROBABILISTIC_SAMPLES,
    ) -> None:
        self.rng = random.Random(seed)
        self.max_conflicts = max_conflicts
        self.probabilistic_samples = probabilistic_samples
        # Terms larger than this skip bit-blasting (the CNF would dwarf the
        # budget) and rely on the randomized battery instead.
        self.sat_node_limit = sat_node_limit
        # The solver context of the last SAT query; a primed checker
        # shares it across its queries.
        self._context: IncrementalSatContext | None = None
        # The spec term to prime new contexts with (re-applied whenever an
        # oversized context is replaced).
        self._prime_term: Term | None = None
        # Output lane width declared by prime(); None: no lane proofs.
        self._lane_width: int | None = None
        # One context per abstract spec lane, and the lane classes proved.
        self._lane_contexts: dict[Term, IncrementalSatContext] = {}
        self.proven: set[LaneClass] = set()
        # Classes the simulation refuted: their CDCL query would be SAT.
        self._refuted: set[LaneClass] = set()
        # Verdicts per rung.  ``alpha`` is counted by the similarity engine's
        # rung in front of this ladder (repro.similarity.equivalence), which
        # also memoises its instantiability walks in ``instantiable`` and the
        # term lowerings of pairs that reach this ladder in ``lowered``, so
        # that both memos are scoped to — and freed with — one checker.
        self.stats = {"alpha": 0, "structural": 0, "fuzz": 0, "exhaustive": 0, "sat": 0, "probabilistic": 0}
        self.instantiable: dict = {}
        self.lowered: dict = {}

    # ------------------------------------------------------------------

    def prime(self, spec: Term, lane_width: int | None = None) -> None:
        """Declare the spec every SAT query will verify against.

        Solver contexts created from now on blast ``spec`` first, and
        the checker's SAT queries share one of them
        (see :meth:`IncrementalSatContext.prime`).  With ``lane_width``,
        the SAT rung first tries to prove the pair one lane class at a
        time (:meth:`_prove_lanes`).
        """
        self._prime_term = simplify(spec)
        self._lane_width = lane_width
        self._context = None  # rebuilt (and re-primed) lazily

    def _new_context(self) -> IncrementalSatContext:
        context = IncrementalSatContext()
        if self._prime_term is not None:
            context.prime(self._prime_term)
        return context

    # ------------------------------------------------------------------

    def check_equivalence(self, a: Term, b: Term) -> CheckResult:
        """Decide whether ``a`` and ``b`` agree on every input."""
        if a.width != b.width:
            return CheckResult(False, None, "width")
        # Terms are hash-consed: one object needs no normalising.
        sa, sb = (a, b) if a is b else (simplify(a), simplify(b))
        if sa == sb:
            self.stats["structural"] += 1
            return CheckResult(True, None, "structural")

        classes = self._decomposition(sa, sb)
        if classes is not None and self._simulate_lanes(classes):
            self.stats["exhaustive"] += 1
            return CheckResult(True, None, "exhaustive")

        variables = _merged_variables(sa, sb)

        # Quick randomized refutation.
        for _ in range(QUICK_FUZZ_SAMPLES):
            env = _random_env(variables, self.rng)
            if evaluate(sa, env).value != evaluate(sb, env).value:
                self.stats["fuzz"] += 1
                return CheckResult(False, env, "fuzz")

        total_bits = sum(variables.values())
        if total_bits <= EXHAUSTIVE_BIT_LIMIT:
            self.stats["exhaustive"] += 1
            return self._exhaustive(sa, sb, variables)

        if sa.size() + sb.size() <= self.sat_node_limit and not (
            _has_wide_multiply(sa) or _has_wide_multiply(sb)
        ):
            try:
                result = self._sat_check(sa, sb, variables, classes)
                self.stats["sat"] += 1
                return result
            except NotBitblastable:
                pass

        for _ in range(self.probabilistic_samples):
            env = _random_env(variables, self.rng)
            if evaluate(sa, env).value != evaluate(sb, env).value:
                self.stats["probabilistic"] += 1
                return CheckResult(False, env, "probabilistic")
        self.stats["probabilistic"] += 1
        return CheckResult(True, None, "probabilistic")

    # ------------------------------------------------------------------

    def _exhaustive(
        self, a: Term, b: Term, variables: dict[str, int]
    ) -> CheckResult:
        names = sorted(variables)
        spaces = [range(1 << variables[n]) for n in names]
        for values in itertools.product(*spaces):
            env = {
                name: BitVector(value, variables[name])
                for name, value in zip(names, values)
            }
            if evaluate(a, env).value != evaluate(b, env).value:
                return CheckResult(False, env, "exhaustive")
        return CheckResult(True, None, "exhaustive")

    def proves(self, a: Term, b: Term) -> bool:
        """True when ``a == b`` is already established without a query:
        the two simplify to the same term, or every lane class of the
        pair has been proved by an earlier SAT rung."""
        if a.width != b.width:
            return False
        sa, sb = simplify(a), simplify(b)
        if sa == sb:
            return True
        if self._lane_width is None:
            return False
        split = lane_classes(sa, sb, self._lane_width)
        return split is not None and all(c in self.proven for c in split[0])

    def _decomposition(self, a: Term, b: Term) -> list[LaneClass] | None:
        """The lane classes of a simplified pair when a lane-primed
        checker can prove it class by class: there are fewer classes
        than lanes.  None otherwise."""
        if self._lane_width is None:
            return None
        split = lane_classes(a, b, self._lane_width)
        if split is None or len(split[0]) >= split[1]:
            return None
        return split[0]

    def _simulate_lanes(self, classes: list[LaneClass]) -> bool:
        """Decide a decomposing pair's classes by simulation.

        Each class not yet in :attr:`proven` is simulated on every input
        (:func:`~repro.smt.simulate.simulate_equal`); a proved class
        joins :attr:`proven`, and the first refuted one ends the pass.
        True when every class is proved.
        """
        perf = global_counters()
        for cls in classes:
            if cls in self.proven:
                continue
            abstract_spec, abstract_candidate = cls
            verdict = simulate_equal(abstract_candidate, abstract_spec)
            if verdict is None:
                continue
            perf.lane_class_simulations += 1
            if not verdict:
                self._refuted.add(cls)
                return False
            self.proven.add(cls)
        return all(cls in self.proven for cls in classes)

    def _prove_lanes(self, classes: list[LaneClass]) -> bool:
        """Prove a decomposing pair's lane classes one at a time.

        Each class not yet in :attr:`proven` is proved on a context
        primed with its abstract spec lane, under the checker's conflict
        budget.  False — leaving the whole-vector query to decide —
        unless every class is UNSAT; a class the simulation refuted falls
        back at once.
        """
        perf = global_counters()
        if any(cls in self._refuted for cls in classes):
            perf.lane_fallbacks += 1
            return False
        for cls in classes:
            if cls in self.proven:
                continue
            abstract_spec, abstract_candidate = cls
            context = self._lane_contexts.get(abstract_spec)
            if context is None or context.oversized():
                context = IncrementalSatContext()
                context.prime(abstract_spec)
                self._lane_contexts[abstract_spec] = context
            perf.lane_class_queries += 1
            try:
                result = context.check_not_equal(
                    abstract_candidate, abstract_spec, self.max_conflicts
                )
            except (NotBitblastable, SolverBudgetExceeded):
                result = None
            if result is None or result.satisfiable:
                perf.lane_fallbacks += 1
                return False
            self.proven.add(cls)
        return True

    def _sat_check(
        self,
        a: Term,
        b: Term,
        variables: dict[str, int],
        classes: list[LaneClass] | None = None,
    ) -> CheckResult:
        """Bit-blast ``a != b`` and run CDCL; ``classes`` is the pair's
        :meth:`_decomposition`, proved class by class first."""
        if classes is not None and self._prove_lanes(classes):
            return CheckResult(True, None, "sat")
        # Only a primed checker's queries share one spec's variables; an
        # unprimed one may see a name again at another width, so each of
        # its queries gets a context of its own.
        if (
            self._prime_term is None
            or self._context is None
            or self._context.oversized()
        ):
            self._context = self._new_context()
        try:
            result = self._context.check_not_equal(a, b, self.max_conflicts)
        except SolverBudgetExceeded as exc:
            raise SolverTimeout(str(exc)) from exc
        if not result.satisfiable:
            return CheckResult(True, None, "sat")
        env = self._model_to_env(result.model, self._context.blaster, variables)
        return CheckResult(False, env, "sat")

    @staticmethod
    def _model_to_env(
        model: dict[int, bool], blaster: BitBlaster, variables: dict[str, int]
    ) -> dict[str, BitVector]:
        env: dict[str, BitVector] = {}
        for name, width in variables.items():
            bits = blaster.var_bits.get(name)
            value = 0
            if bits is not None:
                for i, lit in enumerate(bits):
                    assigned = model.get(abs(lit), False)
                    bit = assigned if lit > 0 else not assigned
                    if bit:
                        value |= 1 << i
            env[name] = BitVector(value, width)
        return env


# Multiplier circuits beyond this operand width produce CNF the CDCL
# budget cannot usefully chew through; such queries go to the battery.
SAT_MULTIPLY_WIDTH_LIMIT = 12


def _has_wide_multiply(term: Term) -> bool:
    for node in term.walk():
        if isinstance(node, App) and node.op == "bvmul":
            if node.width > SAT_MULTIPLY_WIDTH_LIMIT:
                return True
    return False
