"""The one table of per-ISA facts, and access to catalogs and semantics.

Each registered ISA is one :class:`IsaRow`: its spec catalog, its
pseudocode dialect, its machine description and the op families the
LLVM baseline lowers directly on it.  Every consumer reads these
through :func:`isa_row` and enumerates :func:`supported_isas`.

Catalog generation is cheap (milliseconds); pseudocode parsing and
canonicalisation take about a second over the four catalogs, so
everything is cached per process.  The offline IR-generation pipeline
(:mod:`repro.irgen`) slices the parse work across worker processes via
:func:`parse_slice` and persists the result, so warm processes skip this
module's slow path entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import import_module

from repro.hydride_ir.ast import SemanticsFunction
from repro.hydride_ir.transforms import canonicalize
from repro.isa.pseudo_core import dialect_semantics
from repro.isa.spec import InstructionSpec, IsaCatalog
from repro.machine.targets import TargetDescription
from repro.perf import global_counters

# -- the plug-in table ------------------------------------------------------


@dataclass(frozen=True)
class IsaRow:
    """Everything the compiler knows about one ISA besides its specs.

    ``generator`` and ``dialect`` name the catalog generator and the
    dialect table as ``module:attribute``, so the (comparatively heavy)
    per-ISA subpackages import lazily.  ``target`` is the machine the
    simulator costs its code on, and ``llvm_direct`` the Halide op
    families LLVM's generic lowering maps directly on it (the baseline's
    maturity subset, see :mod:`repro.backend.llvm_generic`).
    """

    generator: str
    dialect: str
    target: TargetDescription
    llvm_direct: frozenset[str]


# Plain SIMD: the op families every LLVM vector backend lowers directly.
_PLAIN_SIMD = frozenset({
    "add", "sub", "mul", "min_s", "max_s", "min_u", "max_u",
    "and", "or", "xor", "shl", "lshr", "ashr", "cmp", "select", "widen_cast",
})
_SATURATING = frozenset({"adds", "addus", "subs", "subus", "avg_u", "sat_cast"})

# One row per ISA; ``SUPPORTED_ISAS`` is *derived* from this table, so
# adding a target is a specgen, a dialect table and one row here.  Target
# shapes follow the paper's evaluation hardware: a Xeon Silver 4216
# (AVX-512, 2 vector ALU ports, 1 shuffle port), Hexagon HVX (wide
# vectors, fewer ports, in-order), and an Apple-M2-class NEON core (4
# vector pipes, narrow vectors, high frequency).  Absolute numbers are
# representative, not measured; the experiments report ratios.
_REGISTRY: dict[str, IsaRow] = {
    "x86": IsaRow(
        "repro.isa.x86.specgen:generate_x86_catalog",
        "repro.isa.x86.parser:DIALECT",
        TargetDescription(
            name="x86",
            vector_bits=512,
            frequency_ghz=2.1,
            ports={"alu": 2, "mul": 1, "shuffle": 1, "load": 3, "store": 1},
            load_rthroughput=0.33,
            store_rthroughput=0.5,
            strided_load_penalty=3.0,
            generic_permute_latency=3.0,
            vector_registers=32,
        ),
        # LLVM's x86 lowering is mature: saturating adds, averages, packs
        # and conversions all pattern-match; only dot products and
        # specialized cross-lane ops are out of reach.
        _PLAIN_SIMD | _SATURATING,
    ),
    "hvx": IsaRow(
        "repro.isa.hvx.specgen:generate_hvx_catalog",
        "repro.isa.hvx.parser:DIALECT",
        TargetDescription(
            name="hvx",
            vector_bits=1024,
            frequency_ghz=1.0,
            ports={"alu": 2, "mul": 1, "shuffle": 1, "load": 2, "store": 1},
            load_rthroughput=0.5,
            store_rthroughput=0.5,
            strided_load_penalty=4.0,
            generic_permute_latency=4.0,
            vector_registers=32,
        ),
        # LLVM's Hexagon backend reaches only plain SIMD: the HVX-specific
        # saturating/averaging/narrowing instructions never materialise.
        _PLAIN_SIMD,
    ),
    "arm": IsaRow(
        "repro.isa.arm.specgen:generate_arm_catalog",
        "repro.isa.arm.parser:DIALECT",
        TargetDescription(
            name="arm",
            vector_bits=128,
            frequency_ghz=3.49,
            ports={"alu": 4, "mul": 2, "shuffle": 2, "load": 4, "store": 2},
            load_rthroughput=0.25,
            store_rthroughput=0.5,
            strided_load_penalty=2.0,
            generic_permute_latency=2.0,
            vector_registers=32,
        ),
        # AArch64 lowering covers saturation and halving but misses the
        # fused and pairwise families.
        _PLAIN_SIMD | _SATURATING | {"havg_u", "havg_s"},
    ),
    "rvv": IsaRow(
        "repro.isa.rvv.specgen:generate_rvv_catalog",
        "repro.isa.rvv.parser:DIALECT",
        # RVV is vector-length-agnostic; codegen windows are sized at the
        # catalog's solver shape (VLEN=128 at LMUL=2), not a hardware VLEN.
        TargetDescription(
            name="rvv",
            vector_bits=256,
            frequency_ghz=2.0,
            ports={"alu": 2, "mul": 1, "shuffle": 1, "load": 2, "store": 1},
            load_rthroughput=0.5,
            store_rthroughput=1.0,
            strided_load_penalty=2.0,
            generic_permute_latency=3.0,
            vector_registers=32,
        ),
        # LLVM's RISC-V vector lowering is young: plain SIMD only, as for
        # HVX; the saturating/averaging/narrowing-clip instructions expand.
        _PLAIN_SIMD,
    ),
}


def isa_row(isa: str) -> IsaRow:
    """The registry row of ``isa``; ``ValueError`` names the supported set."""
    row = _REGISTRY.get(isa)
    if row is None:
        raise ValueError(
            f"unknown ISA {isa!r}; supported: {supported_isas()}"
        )
    return row


def _load(reference: str):
    """Import and return the object a ``module:attribute`` cell names."""
    module, _, attribute = reference.partition(":")
    return getattr(import_module(module), attribute)


#: The three fixed-width ISAs of the paper's evaluation: the targets of
#: its experiments and of Table 1's rows.  Dictionaries and irgen
#: artifacts always cover every registered ISA (``supported_isas``).
CORE_ISAS = ("x86", "hvx", "arm")

#: Every registered ISA, in registration order.
SUPPORTED_ISAS = tuple(_REGISTRY)


def supported_isas() -> tuple[str, ...]:
    """All registered ISAs, in registration order."""
    return SUPPORTED_ISAS


@dataclass
class LoadedIsa:
    """A catalog together with canonicalised semantics per instruction."""

    catalog: IsaCatalog
    semantics: dict[str, SemanticsFunction]

    @property
    def isa(self) -> str:
        return self.catalog.isa

    def spec(self, name: str) -> InstructionSpec:
        return self.catalog.by_name(name)

    def __len__(self) -> int:
        return len(self.catalog)


@lru_cache(maxsize=None)
def load_catalog(isa: str) -> IsaCatalog:
    """Generate one ISA's spec catalog (no parsing), cached."""
    return _load(isa_row(isa).generator)()


def parse_spec(isa: str, spec: InstructionSpec) -> SemanticsFunction:
    """Parse + canonicalise one spec's pseudocode."""
    global_counters().specs_parsed += 1
    return canonicalize(dialect_semantics(_load(isa_row(isa).dialect), spec))


def parse_slice(
    isa: str, start: int, stop: int
) -> list[tuple[str, SemanticsFunction]]:
    """Parse + canonicalise one contiguous slice of an ISA's catalog.

    The worker entry point of the parallel parse phase: each worker
    regenerates the (cheap, cached) catalog itself rather than having
    spec objects — whose fuzzer ``reference`` callables don't pickle —
    shipped over the process boundary.
    """
    catalog = load_catalog(isa)
    return [
        (spec.name, parse_spec(isa, spec))
        for spec in catalog.specs[start:stop]
    ]


def _generate_and_parse(isa: str) -> LoadedIsa:
    catalog = load_catalog(isa)
    semantics = {
        name: func for name, func in parse_slice(isa, 0, len(catalog))
    }
    return LoadedIsa(catalog, semantics)


@lru_cache(maxsize=None)
def load_isa(isa: str) -> LoadedIsa:
    """Load (generate + parse + canonicalise) one ISA, cached."""
    return _generate_and_parse(isa)
