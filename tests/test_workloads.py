"""Tests for the 33-benchmark workload suite."""

import re

import pytest

from repro.halide import ir as hir
from repro.workloads.registry import all_benchmarks, benchmark_named


class TestRegistry:
    def test_thirty_three_benchmarks(self):
        assert len(all_benchmarks()) == 33

    def test_categories(self):
        categories = {b.category for b in all_benchmarks()}
        assert categories == {"image", "dnn", "fused"}

    def test_unique_names(self):
        names = [b.name for b in all_benchmarks()]
        assert len(names) == len(set(names))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            benchmark_named("nonexistent")

    def test_lanes_scale_with_target(self):
        b = benchmark_named("matmul_b1")
        assert b.lanes_for("hvx") > b.lanes_for("x86") > b.lanes_for("arm")


@pytest.mark.parametrize("isa", ["x86", "hvx", "arm"])
class TestLowering:
    def test_all_benchmarks_lower(self, isa):
        for benchmark in all_benchmarks():
            kernels = benchmark.lower(isa)
            assert kernels, benchmark.name
            for kernel in kernels:
                assert kernel.window.type.bits > 0
                assert kernel.work_items > 0

    def test_vector_width_matches_target(self, isa):
        from repro.isa.registry import isa_row

        vector_bits = isa_row(isa).target.vector_bits
        for benchmark in all_benchmarks():
            for kernel in benchmark.lower(isa):
                window_bits = kernel.lanes * kernel.out_elem_width
                assert window_bits in (
                    vector_bits, vector_bits * 2,
                ), benchmark.name


class TestKernelShapes:
    def test_matmul_has_reduce_window(self):
        kernels = benchmark_named("matmul_b1").lower("x86")
        reduces = [
            n for n in kernels[0].window.walk() if isinstance(n, hir.HReduceAdd)
        ]
        assert reduces and reduces[0].factor == 2

    def test_conv_nn_is_four_way(self):
        kernels = benchmark_named("conv_nn").lower("hvx")
        reduces = [
            n for n in kernels[0].window.walk() if isinstance(n, hir.HReduceAdd)
        ]
        assert reduces and reduces[0].factor == 4

    def test_gaussian7x7_is_wide_unrolled(self):
        """The wide-window shape behind the paper's HVX regression."""
        kernels = benchmark_named("gaussian7x7").lower("hvx")
        muls = [
            n
            for n in kernels[0].window.walk()
            if isinstance(n, hir.HBin) and n.op == "mul"
        ]
        assert len(muls) == 7
        assert not any(
            isinstance(n, hir.HReduceAdd) for n in kernels[0].window.walk()
        )

    def test_pooling_uses_rounding_average(self):
        kernels = benchmark_named("average_pool").lower("x86")
        ops = kernels[0].window.ops_used()
        assert "avg_u" in ops

    def test_strided_loads_in_pooling(self):
        kernels = benchmark_named("max_pool").lower("x86")
        strides = {load.stride for load in kernels[0].loads.values()}
        assert 2 in strides

    def test_mlp_blocks_have_two_stages(self):
        assert len(benchmark_named("matmul_bias_relu_matmul").stages) == 2
        assert len(benchmark_named("matmul_bias").stages) == 1

    def test_softmax_has_param_broadcasts(self):
        kernels = benchmark_named("softmax").lower("x86")
        broadcasts = [
            n for n in kernels[0].window.walk() if isinstance(n, hir.HBroadcast)
        ]
        assert len(broadcasts) >= 2

    def test_median_is_minmax_network(self):
        kernels = benchmark_named("median3x3").lower("arm")
        ops = kernels[0].window.ops_used()
        assert ops <= {"min_u", "max_u"}

    def test_matmul_batches_scale_work(self):
        b1 = benchmark_named("matmul_b1").lower("x86")[0].work_items
        b4 = benchmark_named("matmul_b4").lower("x86")[0].work_items
        assert b4 == 4 * b1


def _fresh_lowering(benchmark, isa):
    """``benchmark.lower(isa)`` rebuilt from the stages, bypassing the
    per-process memo."""
    from repro.halide.lowering import lower_func

    lanes = benchmark.lanes_for(isa)
    return [lower_func(*stage(lanes)) for stage in benchmark.stages]


def _dump(kernels) -> str:
    """Every field of every kernel (window, loops, loads, schedule, ...).
    Each ``RDom`` draws its axis names ``r<N>_<i>`` from a process-wide
    counter, so a re-lowering renames them; ``<N>`` is dropped."""
    return re.sub(r"\br\d+_(\d+)", r"r_\1", repr(kernels))


class TestLoweringMemo:
    """``Benchmark.lower`` lowers once per process and ISA.  The kernels
    it hands out are shared (a forked worker inherits its parent's), so
    no compiler may mutate one."""

    def test_lower_twice_gives_equal_kernels(self):
        from repro.isa.registry import supported_isas

        for isa in supported_isas():
            for benchmark in all_benchmarks():
                first, second = benchmark.lower(isa), benchmark.lower(isa)
                assert first is not second and first == second
                assert _dump(first) == _dump(_fresh_lowering(benchmark, isa))

    @pytest.mark.parametrize("compiler", ["llvm", "halide"])
    def test_baseline_compiles_leave_kernels_untouched(self, compiler):
        from repro.backend import HalideNativeCompiler, LlvmGenericCompiler
        from repro.isa.registry import supported_isas

        backend = (
            LlvmGenericCompiler() if compiler == "llvm"
            else HalideNativeCompiler()
        )
        for isa in supported_isas():
            for benchmark in all_benchmarks():
                for kernel in benchmark.lower(isa):
                    backend.compile(kernel, isa).simulate()
                assert _dump(benchmark.lower(isa)) == _dump(
                    _fresh_lowering(benchmark, isa)
                ), (benchmark.name, isa)

    def test_hydride_compiles_match_an_unmemoised_run(self):
        from repro.autollvm import build_dictionary
        from repro.backend import HydrideCompiler
        from repro.isa.registry import supported_isas
        from repro.synthesis import CegisOptions, MemoCache
        from repro.synthesis.rules import program_signature

        dictionary = build_dictionary()

        def compile_all(kernels, isa):
            compiler = HydrideCompiler(
                dictionary=dictionary,
                cache=MemoCache(),
                cegis=CegisOptions(timeout_seconds=30, scale_factor=8),
            )
            signatures, runtime_us = [], 0.0
            for kernel in kernels:
                compiled = compiler.compile(kernel, isa)
                runtime_us += compiled.simulate().runtime_us
                signatures += [program_signature(p) for p in compiled.programs]
            return signatures, runtime_us

        benchmark = benchmark_named("average_pool")
        for isa in supported_isas():
            unmemoised = _fresh_lowering(benchmark, isa)
            memoised = compile_all(benchmark.lower(isa), isa)
            assert memoised == compile_all(unmemoised, isa)
            assert _dump(benchmark.lower(isa)) == _dump(
                _fresh_lowering(benchmark, isa)
            )
