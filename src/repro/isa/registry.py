"""Central access point for ISA catalogs and parsed semantics.

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
from repro.perf import global_counters

# -- the plug-in table ------------------------------------------------------
#
# One row per ISA: ``(catalog generator, dialect table)``, each named as
# ``module:attribute`` so the (comparatively heavy) per-ISA subpackages
# import lazily.  ``SUPPORTED_ISAS`` is *derived* from this table — the
# ISA layer's share of adding a target is one row here.

_REGISTRY: dict[str, tuple[str, str]] = {
    "x86": ("repro.isa.x86.specgen:generate_x86_catalog", "repro.isa.x86.parser:DIALECT"),
    "hvx": ("repro.isa.hvx.specgen:generate_hvx_catalog", "repro.isa.hvx.parser:DIALECT"),
    "arm": ("repro.isa.arm.specgen:generate_arm_catalog", "repro.isa.arm.parser:DIALECT"),
    "rvv": ("repro.isa.rvv.specgen:generate_rvv_catalog", "repro.isa.rvv.parser:DIALECT"),
}


def _row(isa: str) -> tuple[str, str]:
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
    generator, _dialect = _row(isa)
    return _load(generator)()


def parse_spec(isa: str, spec: InstructionSpec) -> SemanticsFunction:
    """Parse + canonicalise one spec's pseudocode."""
    global_counters().specs_parsed += 1
    _generator, dialect = _row(isa)
    return canonicalize(dialect_semantics(_load(dialect), spec))


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


def load_isas(isas: tuple[str, ...]) -> list[LoadedIsa]:
    return [load_isa(isa) for isa in isas]
