"""Tests for the machine performance model."""

import pytest

from repro.isa.registry import isa_row
from repro.machine import MachineOp, simulate_kernel
from repro.machine.ops import op_from_spec, port_for_family
from repro.machine.simulator import simulate_body


def _op(port="alu", rtp=0.5, latency=1.0, carried=False, name="op"):
    return MachineOp(name, port, latency, rtp, carried)


class TestOps:
    def test_port_classification(self):
        assert port_for_family("ew_add") == "alu"
        assert port_for_family("dot_dpwssd") == "mul"
        assert port_for_family("unpack_lo") == "shuffle"
        assert port_for_family("swizzle_shuff") == "shuffle"

    def test_unknown_port_rejected(self):
        with pytest.raises(ValueError):
            MachineOp("x", "fpu", 1.0, 1.0)

    def test_op_from_spec(self):
        from repro.isa.registry import load_isa

        spec = load_isa("x86").spec("_mm512_madd_epi16")
        op = op_from_spec(spec)
        assert op.port == "mul"
        assert op.latency == spec.latency


class TestSimulator:
    def test_port_bound(self):
        target = isa_row("x86").target  # 2 alu units
        body = [_op("alu", rtp=0.5)] * 8  # 4 cycles of alu work, 2 units
        cycles, _, bound = simulate_body(body, target)
        assert cycles == pytest.approx(2.0)
        assert bound == "port:alu"

    def test_single_mul_unit_binds(self):
        target = isa_row("x86").target
        body = [_op("mul", rtp=0.5)] * 8 + [_op("alu", rtp=0.5)] * 2
        cycles, per_port, bound = simulate_body(body, target)
        assert bound == "port:mul"
        assert cycles == pytest.approx(4.0)

    def test_carried_chain_bound(self):
        target = isa_row("x86").target
        body = [_op("alu", rtp=0.5, latency=4.0, carried=True)] * 3
        cycles, _, bound = simulate_body(body, target)
        assert bound == "carried"
        assert cycles == pytest.approx(12.0)

    def test_spill_penalty(self):
        target = isa_row("x86").target
        body = [_op("alu")] * 2
        light, _, _ = simulate_body(body, target, live_values=8)
        heavy, _, _ = simulate_body(body, target, live_values=40)
        assert heavy > light

    def test_total_scales_with_iterations(self):
        target = isa_row("hvx").target
        body = [_op("alu", rtp=1.0)] * 4
        one = simulate_kernel(body, 10, target)
        two = simulate_kernel(body, 20, target)
        assert two.total_cycles == pytest.approx(2 * one.total_cycles)

    def test_minimum_one_cycle(self):
        target = isa_row("arm").target
        result = simulate_kernel([], 5, target)
        assert result.cycles_per_iteration == 1.0

    def test_frequency_affects_runtime_not_cycles(self):
        body = [_op("alu", rtp=1.0)] * 4
        hvx = simulate_kernel(body, 100, isa_row("hvx").target)
        arm = simulate_kernel(body, 100, isa_row("arm").target)
        assert arm.runtime_us < hvx.runtime_us  # 3.49 GHz vs 1 GHz

    def test_fewer_instructions_run_faster(self):
        """The property every Figure 6 comparison rests on."""
        target = isa_row("hvx").target
        dot = [_op("mul", rtp=1.0, name="vdmpy")]
        naive = [
            _op("shuffle", rtp=1.0, name="widen"),
            _op("shuffle", rtp=1.0, name="widen"),
            _op("mul", rtp=1.0, name="vmpy"),
            _op("shuffle", rtp=1.0, name="shuf"),
            _op("alu", rtp=0.5, name="add"),
        ]
        fast = simulate_kernel(dot, 1000, target)
        slow = simulate_kernel(naive, 1000, target)
        assert slow.total_cycles > 2 * fast.total_cycles
