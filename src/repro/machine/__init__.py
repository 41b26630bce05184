"""Machine performance model.

The paper evaluates on an Intel Xeon, an Apple M2, and Qualcomm's
cycle-accurate HVX simulator; none is available here, so this package
provides the substitute: a port/latency target description (each
ISA's lives in its :mod:`repro.isa.registry` row) and an in-order issue
model that costs the instruction stream each compiler produces for a
kernel's loop nest.

The model is deliberately simple — per-iteration cost is the binding
port's reciprocal-throughput sum, with latency entering through
loop-carried accumulator chains — because the paper's performance deltas
come from *which instructions were selected* (a dot product versus a
widen-multiply-add-shuffle sequence), not from microarchitectural
subtlety.  What must be preserved is who wins and by roughly what factor.
"""

from repro.machine.ops import MachineOp, PORT_CLASSES
from repro.machine.targets import TargetDescription
from repro.machine.simulator import SimulationResult, simulate_kernel

__all__ = [
    "MachineOp",
    "PORT_CLASSES",
    "TargetDescription",
    "SimulationResult",
    "simulate_kernel",
]
