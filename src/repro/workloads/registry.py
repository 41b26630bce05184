"""Benchmark registry: metadata + per-target instantiation."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.halide.dsl import Func
from repro.halide.lowering import LoweredKernel, lower_func
from repro.isa.registry import isa_row

# A stage builder returns (scheduled Func, loop extents) for a lane count.
StageBuilder = Callable[[int], tuple[Func, dict[str, int]]]


@dataclass
class Benchmark:
    """One paper benchmark: one or more fused stages."""

    name: str
    category: str  # 'image' | 'dnn' | 'fused'
    stages: list[StageBuilder]
    # Element width of the vectorised dimension: lanes = vector_bits / this.
    vector_elem_width: int
    attributes: dict[str, object] = field(default_factory=dict)
    # ISA -> its lowered stages, built on the first lower(isa).
    _lowered: dict[str, tuple[LoweredKernel, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def lanes_for(self, isa: str) -> int:
        return isa_row(isa).target.vector_bits // self.vector_elem_width

    def lower(self, isa: str) -> list[LoweredKernel]:
        """All stages lowered for one target.

        Lowered once per process and ISA: the daemon's parent lowers a
        job to key its windows, and every worker it forks inherits that
        lowering.  The list is fresh on each call; the kernels are
        shared, so nothing may mutate one.
        """
        kernels = self._lowered.get(isa)
        if kernels is None:
            lanes = self.lanes_for(isa)
            kernels = tuple(
                lower_func(*stage(lanes)) for stage in self.stages
            )
            self._lowered[isa] = kernels
        return list(kernels)


def _collect() -> list[Benchmark]:
    from repro.workloads import dnn, fused, image

    benchmarks: list[Benchmark] = []
    benchmarks.extend(image.BENCHMARKS)
    benchmarks.extend(dnn.BENCHMARKS)
    benchmarks.extend(fused.BENCHMARKS)
    return benchmarks


ALL_BENCHMARKS: list[Benchmark] = []


def _ensure_loaded() -> None:
    if not ALL_BENCHMARKS:
        ALL_BENCHMARKS.extend(_collect())


def benchmark_named(name: str) -> Benchmark:
    _ensure_loaded()
    for benchmark in ALL_BENCHMARKS:
        if benchmark.name == name:
            return benchmark
    raise KeyError(f"no benchmark named {name!r}")


def all_benchmarks() -> list[Benchmark]:
    _ensure_loaded()
    return list(ALL_BENCHMARKS)
