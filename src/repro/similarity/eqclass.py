"""Equivalence classes of similar instructions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.similarity.constants import SymbolicSemantics


@dataclass
class ClassMember:
    """One instruction's membership: its parameterized semantics plus the
    argument permutation aligning it with the class-canonical input order
    (``arg_order[i]`` = which member input sits at canonical position i)."""

    symbolic: SymbolicSemantics
    arg_order: tuple[int, ...]

    @property
    def name(self) -> str:
        return self.symbolic.name

    @property
    def isa(self) -> str:
        return self.symbolic.isa

    def values(self) -> tuple[int, ...]:
        return self.symbolic.values_vector()


@dataclass
class EquivalenceClass:
    """A set of similar instructions; one AutoLLVM operation per class."""

    class_id: int
    members: list[ClassMember] = field(default_factory=list)
    # Parameter positions whose value is identical across all members —
    # dropped from the AutoLLVM signature (EliminateUnnecessaryArgs).
    fixed_params: dict[int, int] = field(default_factory=dict)

    @property
    def representative(self) -> SymbolicSemantics:
        return self.members[0].symbolic

    def isas(self) -> set[str]:
        return {m.isa for m in self.members}

    def member_names(self) -> list[str]:
        return [m.name for m in self.members]

    def free_param_positions(self) -> list[int]:
        return [
            i
            for i in range(len(self.representative.param_names))
            if i not in self.fixed_params
        ]

    def compute_fixed_params(self) -> None:
        """EliminateUnnecessaryArgs: fix parameters constant across members."""
        self.fixed_params = {}
        count = len(self.representative.param_names)
        vectors = [m.values() for m in self.members]
        for position in range(count):
            values = {vector[position] for vector in vectors}
            if len(values) == 1:
                self.fixed_params[position] = next(iter(values))


def restrict_classes(
    classes: list[EquivalenceClass], isas: set[str]
) -> list[EquivalenceClass]:
    """The classes induced on a subset of ISAs.

    Restricting an equivalence relation to a subset of its carrier yields
    the induced partition, so subset class counts (Table 1 rows) and
    subset dictionaries derive from one combined engine run.  A class
    that loses no member is returned as is.
    """
    result: list[EquivalenceClass] = []
    for cls in classes:
        members = [m for m in cls.members if m.isa in isas]
        if len(members) == len(cls.members):
            result.append(cls)
        elif members:
            restricted = EquivalenceClass(cls.class_id, members)
            restricted.compute_fixed_params()
            result.append(restricted)
    return result
