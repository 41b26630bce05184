"""The shape of a target machine: vector width, issue ports, costs.

Each registered ISA's description is a field of its row in
:mod:`repro.isa.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TargetDescription:
    name: str
    vector_bits: int
    frequency_ghz: float
    # Number of execution units per port class.
    ports: dict[str, int] = field(default_factory=dict)
    # Cost (reciprocal throughput) of a contiguous vector load/store.
    load_rthroughput: float = 0.5
    store_rthroughput: float = 1.0
    # Multiplier applied to strided / gathered loads.
    strided_load_penalty: float = 2.0
    # Latency of a generic cross-lane permute (the fallback for swizzle
    # patterns with no native instruction).
    generic_permute_latency: float = 3.0
    vector_registers: int = 32
    spill_rthroughput: float = 2.0

    def port_count(self, port: str) -> int:
        return self.ports.get(port, 1)

