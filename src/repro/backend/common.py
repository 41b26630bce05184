"""Shared backend types: compiled kernels and memory-op accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.halide.lowering import LoweredKernel
from repro.machine.ops import MachineOp
from repro.machine.simulator import SimulationResult, simulate_kernel
from repro.isa.registry import isa_row
from repro.machine.targets import TargetDescription


class CompileError(Exception):
    """The backend cannot compile this kernel (Rake's frequent outcome)."""


@dataclass
class CompiledKernel:
    """One kernel compiled by one backend for one target."""

    kernel: LoweredKernel
    target: str
    compiler: str
    body: list[MachineOp] = field(default_factory=list)
    compile_seconds: float = 0.0
    live_values: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def target_description(self) -> TargetDescription:
        return isa_row(self.target).target

    def simulate(self) -> SimulationResult:
        return simulate_kernel(
            self.body,
            self.kernel.work_items,
            self.target_description,
            self.live_values or None,
        )


def memory_ops(kernel: LoweredKernel, target: TargetDescription) -> list[MachineOp]:
    """Loads for every vector input plus the output store.

    Memory instructions are identical across backends (neither Rake nor
    Hydride synthesizes them), so they form a common additive term.
    """
    ops: list[MachineOp] = []
    for load in kernel.loads.values():
        cost = target.load_rthroughput
        if load.stride not in (0, 1):
            cost *= target.strided_load_penalty
        # Loads wider than a vector register issue once per register.
        registers = max(1, (load.lanes * load.elem_width) // target.vector_bits)
        for index in range(registers):
            ops.append(
                MachineOp(f"load.{load.name}.{index}", "load", 4.0, cost)
            )
    store_registers = max(
        1, (kernel.lanes * kernel.out_elem_width) // target.vector_bits
    )
    for index in range(store_registers):
        ops.append(
            MachineOp(f"store.out.{index}", "store", 1.0, target.store_rthroughput)
        )
    return ops


def broadcast_ops(kernel: LoweredKernel) -> list[MachineOp]:
    """One splat per runtime scalar broadcast in the window."""
    from repro.halide import ir as hir

    names = {
        node.name
        for node in kernel.window.walk()
        if isinstance(node, hir.HBroadcast)
    }
    return [
        MachineOp(f"splat.{name}", "shuffle", 3.0, 1.0) for name in sorted(names)
    ]
