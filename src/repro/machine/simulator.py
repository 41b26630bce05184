"""In-order issue cost model over a kernel's loop nest.

Per-iteration cost combines three bounds:

* **port bound** — for each port class, the sum of reciprocal
  throughputs divided by the number of units of that class;
* **carried-chain bound** — the summed latency of ops marked as part of
  the loop-carried accumulator chain (these cannot pipeline);
* **register pressure** — live values beyond the register file add
  spill traffic.

Total cycles = iterations x per-iteration cycles; runtime = cycles /
frequency.  All compilers for a kernel share the same loop nest, so
ratios between them reduce to ratios of body costs — which is where the
instruction-selection differences the paper measures live.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.ops import MachineOp, PORT_CLASSES
from repro.machine.targets import TargetDescription


@dataclass
class SimulationResult:
    cycles_per_iteration: float
    iterations: int
    total_cycles: float
    runtime_us: float
    port_cycles: dict[str, float]
    bound: str  # which bound dominated: 'port:<class>' | 'carried' | 'spill'


def simulate_body(
    body: list[MachineOp],
    target: TargetDescription,
    live_values: int | None = None,
) -> tuple[float, dict[str, float], str]:
    """Cost one loop-body instance; returns (cycles, per-port, bound)."""
    port_cycles = {port: 0.0 for port in PORT_CLASSES}
    carried_latency = 0.0
    for op in body:
        port_cycles[op.port] += op.rthroughput
        if op.carried:
            carried_latency += op.latency
    bound_cycles = 0.0
    bound_name = "port:alu"
    for port, cycles in port_cycles.items():
        normalized = cycles / target.port_count(port)
        if normalized > bound_cycles:
            bound_cycles = normalized
            bound_name = f"port:{port}"
    if carried_latency > bound_cycles:
        bound_cycles = carried_latency
        bound_name = "carried"
    # Register pressure: values live across the body beyond the register
    # file spill and reload through the store/load ports.
    if live_values is not None and live_values > target.vector_registers:
        spill_ops = live_values - target.vector_registers
        spill_cycles = spill_ops * target.spill_rthroughput
        if bound_cycles + spill_cycles > bound_cycles:
            bound_cycles += spill_cycles
            bound_name = "spill" if spill_cycles > bound_cycles / 2 else bound_name
    return bound_cycles, port_cycles, bound_name


def simulate_kernel(
    body: list[MachineOp],
    iterations: int,
    target: TargetDescription,
    live_values: int | None = None,
) -> SimulationResult:
    cycles, port_cycles, bound = simulate_body(body, target, live_values)
    # A floor of one cycle per iteration: loop control issues something.
    cycles = max(cycles, 1.0)
    total = cycles * iterations
    runtime_us = total / (target.frequency_ghz * 1000.0)
    return SimulationResult(
        cycles_per_iteration=cycles,
        iterations=iterations,
        total_cycles=total,
        runtime_us=runtime_us,
        port_cycles=port_cycles,
        bound=bound,
    )
