"""AutoLLVM intrinsic generation from equivalence classes.

Each class yields one parameterized operation.  Its callable signature is
the representative's register inputs (vector-typed using the member's
element width where known) followed by one ``i32`` immediate per *free*
parameter; fixed parameters (identical across the class) are folded away,
exactly the paper's EliminateUnnecessaryArgs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from repro.isa.registry import load_catalog, supported_isas
from repro.isa.spec import InstructionSpec
from repro.similarity.eqclass import (
    ClassMember,
    EquivalenceClass,
    restrict_classes,
)


@dataclass
class TargetBinding:
    """One target instruction reachable from an AutoLLVM op."""

    member: ClassMember
    spec: InstructionSpec
    # Memo slot owned by ``synthesis.grammar._binding_ops``.
    _ops: frozenset[str] | None = field(default=None, repr=False, compare=False)

    @property
    def isa(self) -> str:
        return self.spec.isa

    def free_values(self, free_positions: list[int]) -> tuple[int, ...]:
        values = self.member.values()
        return tuple(values[i] for i in free_positions)


@dataclass
class AutoLLVMOp:
    """One AutoLLVM IR operation (an LLVM intrinsic in the paper)."""

    name: str
    class_id: int
    eq_class: EquivalenceClass
    bindings: list[TargetBinding] = field(default_factory=list)
    _ops: frozenset[str] | None = field(default=None, repr=False, compare=False)

    @property
    def free_positions(self) -> list[int]:
        return self.eq_class.free_param_positions()

    @property
    def arity(self) -> int:
        return len(self.eq_class.representative.inputs)

    def isas(self) -> set[str]:
        return {b.isa for b in self.bindings}

    def bindings_for(self, isa: str) -> list[TargetBinding]:
        return [b for b in self.bindings if b.isa == isa]

    def ops_used(self) -> frozenset[str]:
        """Operators in the representative's semantics (computed once:
        an op is immutable once built)."""
        if self._ops is None:
            self._ops = frozenset(
                op
                for node in self.eq_class.representative.body.walk()
                if (op := getattr(node, "op", None)) is not None
            )
        return self._ops


@dataclass
class AutoLLVMDictionary:
    """The generated dictionary: every AutoLLVM op plus reverse indexes.

    This is the artefact the paper's offline phase hands to both the
    synthesizer (grammar source) and the code generator (lowering table).
    """

    isas: tuple[str, ...]
    ops: list[AutoLLVMOp]
    by_target_instruction: dict[str, AutoLLVMOp] = field(default_factory=dict)
    # Memo slot owned by ``synthesis.serialize.dictionary_fingerprint``:
    # a dictionary is immutable once built, so its digest is computed
    # once per object (and inherited by every worker forked afterwards).
    _fingerprint: str | None = field(default=None, repr=False, compare=False)
    # ops_for_isa memo, per ISA.
    _by_isa: dict[str, tuple[AutoLLVMOp, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.ops)

    def op_named(self, name: str) -> AutoLLVMOp:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)

    def ops_for_isa(self, isa: str) -> tuple[AutoLLVMOp, ...]:
        ops = self._by_isa.get(isa)
        if ops is None:
            ops = self._by_isa[isa] = tuple(
                op for op in self.ops if isa in op.isas()
            )
        return ops


def _family_label(bindings: list[TargetBinding]) -> str:
    families = Counter(b.spec.family for b in bindings)
    label, _count = families.most_common(1)[0]
    return label.replace("/", "_")


def dictionary_from_classes(
    isas: tuple[str, ...], classes: list[EquivalenceClass]
) -> AutoLLVMDictionary:
    """Assemble the dictionary over ``classes`` restricted to ``isas``.

    Target specs are resolved from the (cheap, parse-free) generated
    catalogs by name, which is what lets an artifact loaded from disk
    (:mod:`repro.irgen`) rebuild the full dictionary without ever running
    the pseudocode parser.  Restricting a partition to a subset of its
    ISAs yields the induced partition, so a subset dictionary keeps the
    class ids of the one it was cut from.
    """
    specs = {
        isa: {spec.name: spec for spec in load_catalog(isa)} for isa in isas
    }
    ops: list[AutoLLVMOp] = []
    reverse: dict[str, AutoLLVMOp] = {}
    for cls in restrict_classes(classes, set(isas)):
        bindings = [
            TargetBinding(member, specs[member.isa][member.name])
            for member in cls.members
        ]
        label = _family_label(bindings)
        op = AutoLLVMOp(
            name=f"autollvm.{label}.{cls.class_id}",
            class_id=cls.class_id,
            eq_class=cls,
            bindings=bindings,
        )
        ops.append(op)
        for binding in bindings:
            reverse[binding.spec.name] = op
    return AutoLLVMDictionary(tuple(isas), ops, reverse)


def dictionary_isas(isa: str) -> tuple[str, ...]:
    """Every registered ISA, whatever ``isa`` is: each job compiles
    against the one dictionary.

    Shim for ``bench_e2e`` (oracle, report, nearmiss, tracejob), which
    still asks per ISA; delete it once the benchmark calls
    :func:`build_dictionary` with no argument.
    """
    return supported_isas()


def build_dictionary(isas: tuple[str, ...] | None = None) -> AutoLLVMDictionary:
    """The AutoLLVM dictionary over every registered ISA (cached).

    ``isas`` names a subset: the one partition restricted to it, never a
    second build.  The partition is the irgen artifact
    (:func:`repro.irgen.classes_and_stats`): from the store
    ``REPRO_IRGEN_CACHE`` names (warm load or rebuild-and-persist), or
    built in memory when it names none.
    """
    return _build_dictionary_cached(tuple(isas or supported_isas()))


@lru_cache(maxsize=None)
def _build_dictionary_cached(isas: tuple[str, ...]) -> AutoLLVMDictionary:
    from repro.irgen import classes_and_stats

    classes, _stats = classes_and_stats()
    return dictionary_from_classes(isas, classes)
