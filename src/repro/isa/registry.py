"""Central access point for ISA catalogs and parsed semantics.

Catalog generation is cheap (milliseconds); pseudocode parsing and
canonicalisation take a few seconds per ISA, so everything is cached per
process.  The offline IR-generation pipeline (:mod:`repro.irgen`) slices
the parse work across worker processes via :func:`parse_slice` and
persists the result, so warm processes skip this module's slow path
entirely.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from repro.hydride_ir.ast import SemanticsFunction
from repro.hydride_ir.transforms import canonicalize
from repro.isa.spec import InstructionSpec, IsaCatalog
from repro.perf import global_counters

# -- the plug-in table ------------------------------------------------------
#
# One registration per ISA: a loader returning ``(generate_catalog,
# parse_semantics)``.  Loaders are thunks so the (comparatively heavy)
# per-ISA subpackages import lazily, exactly as the old if/elif chain did.
# ``SUPPORTED_ISAS`` is *derived* from this table — adding an ISA means
# adding one ``register_isa`` call, nothing else.

GeneratorPair = tuple[Callable[[], IsaCatalog], Callable[[InstructionSpec], SemanticsFunction]]

_REGISTRY: dict[str, Callable[[], GeneratorPair]] = {}


def register_isa(name: str, loader: Callable[[], GeneratorPair]) -> None:
    """Register an ISA plug-in: ``loader() -> (generate, parse)``."""
    if name in _REGISTRY:
        raise ValueError(f"ISA {name!r} is already registered")
    _REGISTRY[name] = loader


def _load_x86() -> GeneratorPair:
    from repro.isa.x86 import generate_x86_catalog, x86_semantics

    return generate_x86_catalog, x86_semantics


def _load_hvx() -> GeneratorPair:
    from repro.isa.hvx import generate_hvx_catalog, hvx_semantics

    return generate_hvx_catalog, hvx_semantics


def _load_arm() -> GeneratorPair:
    from repro.isa.arm import generate_arm_catalog, arm_semantics

    return generate_arm_catalog, arm_semantics


def _load_rvv() -> GeneratorPair:
    from repro.isa.rvv import generate_rvv_catalog, rvv_semantics

    return generate_rvv_catalog, rvv_semantics


register_isa("x86", _load_x86)
register_isa("hvx", _load_hvx)
register_isa("arm", _load_arm)
register_isa("rvv", _load_rvv)

#: The three fixed-width ISAs of the paper's evaluation; the default for
#: dictionary builds and experiment runs that predate the rvv target.
CORE_ISAS = ("x86", "hvx", "arm")

#: Every registered ISA, in registration order.
SUPPORTED_ISAS = tuple(_REGISTRY)


def supported_isas() -> tuple[str, ...]:
    """All registered ISAs, including plug-ins added after import."""
    return tuple(_REGISTRY)


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


def _generators(isa: str) -> GeneratorPair:
    """(catalog generator, pseudocode parser) for one ISA."""
    loader = _REGISTRY.get(isa)
    if loader is None:
        raise ValueError(
            f"unknown ISA {isa!r}; supported: {supported_isas()}"
        )
    return loader()


@lru_cache(maxsize=None)
def load_catalog(isa: str) -> IsaCatalog:
    """Generate one ISA's spec catalog (no parsing), cached."""
    generate, _parse = _generators(isa)
    return generate()


def parse_spec(isa: str, spec: InstructionSpec) -> SemanticsFunction:
    """Parse + canonicalise one spec's pseudocode (verification-hooked)."""
    from repro.analysis import hooks

    global_counters().specs_parsed += 1
    _generate, parse = _generators(isa)
    verify = hooks.verification_enabled()
    parsed = parse(spec)
    if verify:
        hooks.verify_semantics(
            parsed,
            isa=isa,
            stage="parse",
            declared_output_width=spec.output_width,
        )
    canonical = canonicalize(parsed)
    if verify:
        hooks.verify_semantics(
            canonical,
            isa=isa,
            stage="canonicalize",
            declared_output_width=spec.output_width,
        )
    return canonical


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
