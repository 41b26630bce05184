"""The Similarity Checking Engine driver — the paper's Algorithm 1.

Pipeline::

    SymSema   <- ExtractConstants(ISA_Sema)
    EqClasses <- PerformEqChecking(SymSema)       (pass 1: plain)
    PermuteArgs(EqClasses); PerformEqChecking     (pass 2: arg orders)
    RefineEqClasses(EqClasses)                    (pass 3: offset holes)
    ExtractConstants; PerformEqChecking           (re-extract + recheck)
    EliminateUnnecessaryArgs(EqClasses)

Cost control mirrors the paper's pre-checks: instructions are only
compared when their argument signatures match (number of register
arguments, of immediate arguments, and of extracted parameters), plus an
operator-multiset screen.  ~97 % of the comparisons that remain are
between two instructions whose parameterized IR is the same function up to
input/iterator names; ``check_similar``'s alpha-equivalence rung settles
those on the IR, and only the rest are lowered to solver terms (where the
structural fast path discharges nearly all of them before SAT).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.smt.solver import EquivalenceChecker
from repro.similarity.constants import SymbolicSemantics
from repro.similarity.eqclass import ClassMember, EquivalenceClass
from repro.similarity.equivalence import check_similar, find_similar_permutation
from repro.similarity.holes import synthesize_offset_hole

# Version of the similarity algorithm itself.  Bump on any change that can
# alter the produced class partition; the on-disk irgen artifact
# (:mod:`repro.irgen`) folds this into its fingerprint so stale artifacts
# are never replayed against a newer engine.
ENGINE_VERSION = 1


@dataclass
class EngineStats:
    instructions: int = 0
    classes: int = 0
    checks: int = 0
    permute_merges: int = 0
    hole_merges: int = 0
    # Candidate-class comparisons skipped because an insert already spent
    # its ``max_semantic_attempts`` budget — each skip is a potential
    # missed merge, so precision loss stays observable (`repro.irgen stats`).
    attempt_truncations: int = 0
    # Hole refinements skipped because the representative cannot be
    # instantiated even at its own parameter values (a broken vendor spec).
    uninstantiable: int = 0
    # How the parse phase lowered the specs (repro.perf's counters of the
    # same names): loop nests lowered as loops, and unrolled bodies that
    # canonicalisation re-rolled.
    specs_lowered_direct: int = 0
    specs_rerolled: int = 0
    seconds: float = 0.0
    checker_stats: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "instructions": self.instructions,
            "classes": self.classes,
            "checks": self.checks,
            "permute_merges": self.permute_merges,
            "hole_merges": self.hole_merges,
            "attempt_truncations": self.attempt_truncations,
            "uninstantiable": self.uninstantiable,
            "specs_lowered_direct": self.specs_lowered_direct,
            "specs_rerolled": self.specs_rerolled,
            "seconds": round(self.seconds, 6),
            "checker_stats": dict(self.checker_stats),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineStats":
        stats = cls()
        for name in (
            "instructions", "classes", "checks", "permute_merges",
            "hole_merges", "attempt_truncations", "uninstantiable",
            "specs_lowered_direct", "specs_rerolled",
        ):
            setattr(stats, name, int(data.get(name, 0)))
        stats.seconds = float(data.get("seconds", 0.0))
        stats.checker_stats = dict(data.get("checker_stats", {}))
        return stats


def shard_key(symbolic: SymbolicSemantics) -> tuple:
    """The finest unit of independent similarity work.

    ``insert`` only ever compares an instruction against candidate classes
    whose signature bucket *and* operator multiset both match, and the
    permutation pass pairs classes under the same two filters — so the
    (signature, op-multiset) groups partition passes 1–2 into jobs that
    can run in parallel workers without changing any comparison."""
    return (symbolic.signature(), symbolic.op_multiset)


class SimilarityEngine:
    """Builds equivalence classes over one or more loaded ISAs."""

    def __init__(self, checker: EquivalenceChecker | None = None) -> None:
        self.checker = checker or EquivalenceChecker(seed=1)
        self.stats = EngineStats()
        # Class bookkeeping: bucket key -> list of class indices.
        self._classes: list[EquivalenceClass] = []
        self._buckets: dict[tuple, list[int]] = {}
        self._class_ops: dict[int, tuple] = {}
        self._class_skeletons: dict[int, str] = {}
        # How many non-skeleton-equal candidate classes to try per insert.
        self.max_semantic_attempts = 8

    # ------------------------------------------------------------------
    # Pass 1: plain placement
    # ------------------------------------------------------------------

    def _bucket_key(self, symbolic: SymbolicSemantics) -> tuple:
        return symbolic.signature()

    def _new_class(self, symbolic: SymbolicSemantics) -> None:
        index = len(self._classes)
        cls = EquivalenceClass(index)
        cls.members.append(
            ClassMember(symbolic, tuple(range(len(symbolic.inputs))))
        )
        self._classes.append(cls)
        self._buckets.setdefault(self._bucket_key(symbolic), []).append(index)
        self._class_ops[index] = symbolic.op_multiset
        self._class_skeletons[index] = symbolic.skeleton

    def insert(self, symbolic: SymbolicSemantics) -> None:
        """Place one instruction into an existing class or a new one."""
        key = self._bucket_key(symbolic)
        ops = symbolic.op_multiset
        candidates = self._buckets.get(key, [])
        # Skeleton-identical classes first: these almost always merge, most
        # of them on check_similar's alpha rung.
        ordered = sorted(
            candidates,
            key=lambda i: 0 if self._class_skeletons[i] == symbolic.skeleton else 1,
        )
        attempts = 0
        for class_index in ordered:
            if self._class_ops[class_index] != ops:
                continue
            skeleton_equal = self._class_skeletons[class_index] == symbolic.skeleton
            if not skeleton_equal:
                if attempts >= self.max_semantic_attempts:
                    self.stats.attempt_truncations += 1
                    continue
                attempts += 1
            cls = self._classes[class_index]
            self.stats.checks += 1
            if check_similar(cls.representative, symbolic, self.checker):
                cls.members.append(
                    ClassMember(symbolic, tuple(range(len(symbolic.inputs))))
                )
                return
        self._new_class(symbolic)

    # ------------------------------------------------------------------
    # Pass 2: argument permutation merges
    # ------------------------------------------------------------------

    def permute_and_merge(self) -> None:
        for key, indices in list(self._buckets.items()):
            live = [i for i in indices if self._classes[i] is not None]
            for position_a in range(len(live)):
                index_a = live[position_a]
                if self._classes[index_a] is None:
                    continue
                for position_b in range(position_a + 1, len(live)):
                    index_b = live[position_b]
                    if self._classes[index_b] is None:
                        continue
                    if self._class_ops[index_a] != self._class_ops[index_b]:
                        continue
                    rep_a = self._classes[index_a].representative
                    rep_b = self._classes[index_b].representative
                    self.stats.checks += 1
                    order = find_similar_permutation(rep_a, rep_b, self.checker)
                    if order is None:
                        continue
                    self._merge_with_order(index_a, index_b, order)
                    self.stats.permute_merges += 1

    def _merge_with_order(
        self, index_into: int, index_from: int, order: tuple[int, ...]
    ) -> None:
        """Fold class ``index_from`` into ``index_into``; ``order`` aligns
        the absorbed representative's args with the canonical order."""
        target = self._classes[index_into]
        source = self._classes[index_from]
        for member in source.members:
            # Compose the member's own alignment with the class alignment.
            composed = tuple(member.arg_order[order[i]] for i in range(len(order)))
            target.members.append(ClassMember(member.symbolic, composed))
        self._classes[index_from] = None  # type: ignore[call-overload]

    # ------------------------------------------------------------------
    # Pass 3: hole refinement merges
    # ------------------------------------------------------------------

    def refine_with_holes(
        self, refined: dict[int, SymbolicSemantics] | None = None
    ) -> None:
        """Insert offset holes into class representatives and re-check.

        Classes whose refined representatives become similar are merged;
        all members of merged classes are re-extracted with holes so the
        class shares one parameterization.  ``refined`` optionally supplies
        precomputed hole refinements (index into the class list -> refined
        representative) — the parallel pipeline synthesizes them in worker
        processes; when omitted they are computed inline.
        """
        if refined is None:
            refined = {}
            for index, cls in enumerate(self._classes):
                if cls is None:
                    continue
                result = synthesize_offset_hole(cls.representative, self.checker)
                if result is not None:
                    refined[index] = result

        by_signature: dict[tuple, list[int]] = {}
        for index, cls in enumerate(self._classes):
            if cls is None:
                continue
            rep = refined.get(index, cls.representative)
            by_signature.setdefault(rep.signature(), []).append(index)

        for indices in by_signature.values():
            for position_a in range(len(indices)):
                index_a = indices[position_a]
                if self._classes[index_a] is None:
                    continue
                rep_a = refined.get(index_a, self._classes[index_a].representative)
                for position_b in range(position_a + 1, len(indices)):
                    index_b = indices[position_b]
                    if self._classes[index_b] is None:
                        continue
                    rep_b = refined.get(
                        index_b, self._classes[index_b].representative
                    )
                    if rep_a.op_multiset != rep_b.op_multiset:
                        continue
                    if rep_a.skeleton != rep_b.skeleton:
                        continue
                    self.stats.checks += 1
                    if not check_similar(rep_a, rep_b, self.checker):
                        continue
                    self._merge_refined(index_a, index_b, refined)
                    self.stats.hole_merges += 1

    def _merge_refined(
        self, index_into: int, index_from: int, refined: dict[int, SymbolicSemantics]
    ) -> None:
        target = self._classes[index_into]
        source = self._classes[index_from]
        # Re-extract every member with holes so parameter positions align
        # across the merged class (the paper's second ExtractConstants).
        new_members: list[ClassMember] = []
        for member in list(target.members) + list(source.members):
            symbolic = member.symbolic
            hole_version = synthesize_offset_hole(symbolic, self.checker)
            if hole_version is not None:
                symbolic = hole_version
            new_members.append(ClassMember(symbolic, member.arg_order))
        target.members = new_members
        self._classes[index_from] = None  # type: ignore[call-overload]

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self, symbolics: list[SymbolicSemantics]) -> list[EquivalenceClass]:
        start = time.monotonic()
        self.stats.instructions = len(symbolics)
        for symbolic in symbolics:
            self.insert(symbolic)
        self.permute_and_merge()
        classes = self.finish(self._classes)
        self.stats.seconds = time.monotonic() - start
        return classes

    def run_pass12(
        self, symbolics: list[SymbolicSemantics]
    ) -> list[EquivalenceClass]:
        """Passes 1–2 only (plain insertion + argument permutation).

        The sharded pipeline runs this per (signature, op-multiset) group
        in worker processes and hands the surviving classes to
        :meth:`finish` in the parent for the cross-group hole pass."""
        self.stats.instructions += len(symbolics)
        for symbolic in symbolics:
            self.insert(symbolic)
        self.permute_and_merge()
        return [c for c in self._classes if c is not None]

    def finish(
        self,
        classes: list[EquivalenceClass],
        refined: dict[int, SymbolicSemantics] | None = None,
    ) -> list[EquivalenceClass]:
        """Pass 3 (hole refinement) plus finalization over ``classes``."""
        self._classes = list(classes)
        self.refine_with_holes(refined)
        result = [c for c in self._classes if c is not None]
        for index, cls in enumerate(result):
            cls.class_id = index
            cls.compute_fixed_params()
        self.stats.classes = len(result)
        self.stats.checker_stats = dict(self.checker.stats)
        self.stats.uninstantiable += self.stats.checker_stats.pop("uninstantiable", 0)
        return result

