"""Integration tests for the experiment harnesses (small configurations).

The full table/figure regeneration lives under ``benchmarks/``; these
tests exercise each harness end-to-end on reduced inputs and assert the
paper's qualitative shapes.
"""

import pytest

from repro.experiments import table1, table2
from repro.experiments.runner import (
    ExperimentRunner,
    format_table,
    result_from_frame,
)
from repro.synthesis import CegisOptions
from repro.workloads.registry import benchmark_named


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(CegisOptions(timeout_seconds=8.0, scale_factor=8))


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run()

    def test_seven_rows(self, result):
        assert len(result.rows) == 7

    def test_rows_match_the_separate_three_isa_build(self, result):
        """Restricting the one partition (every registered ISA) gives the
        rows a separate x86+hvx+arm engine run gave: (ISA size, AutoLLVM
        size) per subset, in the paper's row order."""
        assert [
            (row.isas, row.isa_size, row.autollvm_size) for row in result.rows
        ] == [
            (("x86",), 772, 111),
            (("hvx",), 141, 64),
            (("arm",), 477, 123),
            (("x86", "hvx"), 913, 152),
            (("x86", "arm"), 1249, 201),
            (("hvx", "arm"), 618, 157),
            (("x86", "hvx", "arm"), 1390, 231),
        ]

    def test_every_subset_of_the_registry(self):
        from repro.isa.registry import supported_isas

        rows = table1.run(supported_isas()).rows
        assert len(rows) == 2 ** len(supported_isas()) - 1
        assert (rows[3].isas, rows[3].isa_size, rows[3].autollvm_size) == (
            ("rvv",), 295, 62,
        )
        assert (rows[-1].isa_size, rows[-1].autollvm_size) == (1685, 252)

    def test_each_isa_compresses(self, result):
        for row in result.rows:
            assert row.autollvm_size < row.isa_size / 2

    def test_combination_subadditive(self, result):
        combined = result.row(("x86", "hvx", "arm")).autollvm_size
        total = sum(result.row((isa,)).autollvm_size for isa in ("x86", "hvx", "arm"))
        assert combined < total

    def test_hvx_least_compressible(self, result):
        """HVX is 'a much smaller, and more specialized, instruction set';
        its ratio is the largest, as in the paper's Table 1."""
        ratios = {
            isa: result.row((isa,)).percent for isa in ("x86", "hvx", "arm")
        }
        assert ratios["hvx"] > ratios["arm"] > ratios["x86"]

    def test_render(self, result):
        text = table1.render(result)
        assert "x86 + hvx + arm" in text
        assert "paper" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(trials=32)

    def test_buggy_interpreter_diverges(self, result):
        assert result.buggy_families()

    def test_only_shift_families_diverge(self, result):
        for family in result.buggy_families():
            assert family.startswith("shift"), family

    def test_fixed_interpreter_clean(self, result):
        assert result.fixed_families() == set()

    def test_five_known_bugs_documented(self, result):
        assert len(result.known_bugs) == 5


class TestFigure6Shapes:
    """Key qualitative shapes on a reduced benchmark set."""

    def test_hydride_wins_dot_products_on_hvx(self, runner):
        b = benchmark_named("l2norm")
        hydride = runner.run_one(b, "hvx", "hydride")
        llvm = runner.run_one(b, "hvx", "llvm")
        assert hydride.ok and llvm.ok
        assert hydride.runtime_us < llvm.runtime_us

    def test_llvm_loses_on_hvx_saturation(self, runner):
        b = benchmark_named("average_pool")
        halide = runner.run_one(b, "hvx", "halide")
        llvm = runner.run_one(b, "hvx", "llvm")
        assert llvm.runtime_us > 1.3 * halide.runtime_us

    def test_gaussian7x7_native_wins_on_hvx(self, runner):
        """The paper's one big HVX regression: the wide vrmpy window."""
        b = benchmark_named("gaussian7x7")
        halide = runner.run_one(b, "hvx", "halide")
        hydride = runner.run_one(b, "hvx", "hydride")
        assert hydride.runtime_us > 1.2 * halide.runtime_us

    def test_parity_on_simple_kernels(self, runner):
        b = benchmark_named("dilate3x3")
        halide = runner.run_one(b, "x86", "halide")
        hydride = runner.run_one(b, "x86", "hydride")
        ratio = halide.runtime_us / hydride.runtime_us
        assert 0.8 <= ratio <= 1.25

    def test_rake_fails_widely(self, runner):
        failures = 0
        for name in ("conv_nn", "gaussian7x7", "median3x3"):
            outcome = runner.run_one(benchmark_named(name), "hvx", "rake")
            if not outcome.ok:
                failures += 1
        assert failures >= 2


class TestRunnerInfra:
    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]

    def test_suite_geomean(self, runner):
        suite = runner.run_suite(
            "x86", ("halide", "llvm"), [benchmark_named("dilate3x3")]
        )
        assert suite.geomean_speedup("llvm", "halide") == pytest.approx(1.0, rel=0.3)

    def test_service_suite_records_a_fallback_as_a_failure(self, runner):
        """Rake cannot compile conv_nn for HVX.  Through the service the
        llvm baseline answers the job; the suite still records a Rake
        failure, as the serial path does, with the reason kept."""
        conv_nn = [benchmark_named("conv_nn")]
        serial = runner.run_suite("hvx", ("rake",), conv_nn, jobs=1)
        service = runner.run_suite("hvx", ("rake",), conv_nn, jobs=2)
        assert not serial.results[("conv_nn", "rake")].ok
        result = service.results[("conv_nn", "rake")]
        assert not result.ok
        assert result.error.startswith("fallback=llvm: rake:")

    def test_daemon_frame_with_a_fallback_is_a_failure(self):
        frame = {
            "id": "1", "ok": True, "served_by": "l1",
            "result": {"runtime_us": 12.5, "error": "fallback=llvm: rake: x"},
            "telemetry": {"fallback": "llvm"},
        }
        result = result_from_frame(frame, "conv_nn", "hvx", "rake")
        assert result.runtime_us is None
        assert result.error == "fallback=llvm: rake: x"
        clean = {**frame, "result": {"runtime_us": 12.5, "error": ""},
                 "telemetry": {"fallback": ""}}
        assert result_from_frame(clean, "conv_nn", "hvx", "rake").ok
        rejected = {"id": "2", "ok": False,
                    "error": {"type": "quota_exceeded", "message": "busy"}}
        result = result_from_frame(rejected, "conv_nn", "hvx", "rake")
        assert not result.ok
        assert result.error == "daemon quota_exceeded: busy"
