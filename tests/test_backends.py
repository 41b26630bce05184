"""Tests for the compiler backends (Hydride, Halide-native, LLVM, Rake)."""

import hashlib

import pytest

from repro.backend import (
    CompileError,
    HalideNativeCompiler,
    HydrideCompiler,
    LlvmGenericCompiler,
    RakeCompiler,
)
from repro.backend.rake import RakeHvxInterpreter, rake_dictionary, rake_supported_count
from repro.autollvm import build_dictionary
from repro.halide.dsl import Buffer, Func, Var, cast, sat_cast
from repro.halide.lowering import lower_func
from repro.synthesis import CegisOptions, MemoCache

x, y = Var("x"), Var("y")

# sha256 over "isa:benchmark:compiler:runtime_us" of every registry
# workload's kernels under the llvm and halide baselines, every ISA.
BASELINE_RUNTIME_DIGEST = (
    "ca3946bd5bf3645b8ff83e25c9d3eda4830c50e5f90a6f45a3c9433d9c3a465f"
)


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(("x86", "hvx", "arm"))


@pytest.fixture(scope="module")
def add_kernel():
    a, b = Buffer("a", 16), Buffer("b", 16)
    f = Func("vadd")
    f[x, y] = a[y, x] + b[y, x]
    f.vectorize(x, 32)
    return lower_func(f, {"x": 256, "y": 16})


@pytest.fixture(scope="module")
def hydride(dictionary):
    return HydrideCompiler(
        dictionary=dictionary,
        cache=MemoCache(),
        cegis=CegisOptions(timeout_seconds=20.0, scale_factor=8),
    )


class TestHydrideBackend:
    def test_compiles_add(self, hydride, add_kernel):
        compiled = hydride.compile(add_kernel, "hvx")
        assert compiled.compiler == "hydride"
        names = [op.name for op in compiled.body]
        assert any("vadd" in n for n in names)
        assert any(n.startswith("load.") for n in names)
        assert any(n.startswith("store.") for n in names)

    def test_cache_speeds_recompilation(self, hydride, add_kernel):
        first = hydride.compile(add_kernel, "hvx")
        second = hydride.compile(add_kernel, "hvx")
        assert second.compile_seconds < max(first.compile_seconds, 0.5)

    def test_emit_llvm(self, hydride, add_kernel):
        text = hydride.emit_llvm(add_kernel, "hvx")
        assert "@autollvm." in text

    def test_split_on_wide_window(self, dictionary):
        """A window too large for synthesis splits and still compiles."""
        a = Buffer("a", 8, signed=False)
        f = Func("widechain")
        total = None
        for dx in range(-3, 4):
            term = cast(32, a[y, x + dx], signed=False) * (dx + 5)
            total = term if total is None else total + term
        f[x, y] = sat_cast(8, total >> 6, signed=False)
        f.vectorize(x, 64)
        kernel = lower_func(f, {"x": 256, "y": 4})
        compiler = HydrideCompiler(
            dictionary=dictionary,
            cache=MemoCache(),
            cegis=CegisOptions(timeout_seconds=5.0, scale_factor=8),
        )
        compiled = compiler.compile(kernel, "hvx")
        assert compiled.accounting.splits >= 1
        assert compiled.body


class TestBaselines:
    def test_halide_native_compiles(self, add_kernel):
        compiled = HalideNativeCompiler().compile(add_kernel, "hvx")
        assert any("vadd" in op.name for op in compiled.body)

    def test_llvm_generic_expands_saturation_on_hvx(self):
        a, b = Buffer("a", 8, signed=False), Buffer("b", 8, signed=False)
        f = Func("satadd")
        from repro.halide.dsl import saturating_add

        f[x, y] = saturating_add(a[y, x], b[y, x])
        f.vectorize(x, 128)
        kernel = lower_func(f, {"x": 256, "y": 4})
        native = HalideNativeCompiler().compile(kernel, "hvx")
        generic = LlvmGenericCompiler().compile(kernel, "hvx")
        # LLVM's Hexagon lowering has no saturating add: many more ops.
        assert len(generic.body) > len(native.body)
        assert generic.simulate().total_cycles > native.simulate().total_cycles

    def test_llvm_x86_has_saturation(self):
        from repro.halide.dsl import saturating_add

        a, b = Buffer("a", 8, signed=False), Buffer("b", 8, signed=False)
        f = Func("satadd")
        f[x, y] = saturating_add(a[y, x], b[y, x])
        f.vectorize(x, 64)
        kernel = lower_func(f, {"x": 256, "y": 4})
        native = HalideNativeCompiler().compile(kernel, "x86")
        generic = LlvmGenericCompiler().compile(kernel, "x86")
        # Mature x86 lowering: parity on this kernel.
        assert len(generic.body) == len(native.body)

    def test_dot_product_rules_fire(self):
        from repro.workloads.dnn import matmul_stage

        func, extents = matmul_stage(1)(32)
        kernel = lower_func(func, extents)
        native = HalideNativeCompiler().compile(kernel, "hvx")
        assert any("dmpy" in op.name for op in native.body)


class TestRvvGenericGlue:
    """The generic lowering Hydride glues split windows with, and the
    llvm fallback, must know every registered ISA."""

    def test_every_registered_isa_has_a_lowering_table(self):
        # Every registry workload, not one kernel: a registry row missing
        # its target or its llvm families, or a native selector missing
        # a registered ISA, fails here, not in a served request.  The
        # digest over every simulated runtime pins the rows' values.
        from repro.isa.registry import supported_isas
        from repro.workloads.registry import all_benchmarks

        compilers = (LlvmGenericCompiler(), HalideNativeCompiler())
        digest = hashlib.sha256()
        for isa in supported_isas():
            for benchmark in all_benchmarks():
                for kernel in benchmark.lower(isa):
                    for compiler in compilers:
                        compiled = compiler.compile(kernel, isa)
                        assert compiled.body, (benchmark.name, isa)
                        runtime = compiled.simulate().runtime_us
                        assert runtime > 0
                        digest.update(
                            f"{isa}:{benchmark.name}:{compiler.name}:"
                            f"{runtime!r}\n".encode()
                        )
        assert digest.hexdigest() == BASELINE_RUNTIME_DIGEST

    def test_unknown_isa_is_a_typed_error(self, add_kernel):
        with pytest.raises(CompileError, match="vax.*supported.*rvv"):
            LlvmGenericCompiler().compile(add_kernel, "vax")

    def test_matmul_b1_rvv_compiles_without_keyerror(self):
        # Its window splits, so Hydride glues the pieces with
        # lower_single_node; the llvm fallback walks the same table.
        from repro.service import CompileJob
        from repro.service.jobs import execute_job

        outcome = execute_job(
            CompileJob("matmul_b1", "rvv"),
            None,
            CegisOptions(timeout_seconds=0.5, scale_factor=8),
        )
        assert outcome.ok, outcome.result.error
        assert outcome.result.runtime_us is not None
        assert "KeyError" not in (outcome.result.error or "")


class TestRake:
    def test_arm_always_fails(self, dictionary, add_kernel):
        rake = RakeCompiler(dictionary=dictionary)
        with pytest.raises(CompileError):
            rake.compile(add_kernel, "arm")

    def test_subset_smaller_than_full(self, dictionary):
        restricted = rake_dictionary(dictionary)
        full_hvx = {
            b.spec.name for op in dictionary.ops for b in op.bindings_for("hvx")
        }
        rake_hvx = {
            b.spec.name for op in restricted.ops for b in op.bindings_for("hvx")
        }
        assert rake_hvx < full_hvx
        assert "V6_vrmpyubub" not in rake_hvx
        assert "V6_vshuffvdd_h" not in rake_hvx

    def test_supported_count(self):
        count = rake_supported_count()
        from repro.isa.registry import load_isa

        assert count < len(load_isa("hvx"))

    def test_wide_reduction_rejected(self, dictionary):
        from repro.workloads.dnn import _conv_nn

        func, extents = _conv_nn(64)
        kernel = lower_func(func, extents)
        rake = RakeCompiler(dictionary=dictionary)
        with pytest.raises(CompileError):
            rake.compile(kernel, "hvx")

    def test_buggy_interpreter_diverges_on_shifts(self):
        """The Table 2 mechanism: Rake's unmasked shift amounts."""
        from repro.bitvector import bv
        from repro.isa.registry import load_isa

        loaded = load_isa("hvx")
        spec = loaded.spec("V6_vaslh")
        env = {
            "Vu": bv((0x0101 << 16) | 0x0101, 1024).zext(1024),
            "Rt": bv(100, 32),  # amount >= element width
        }
        buggy = RakeHvxInterpreter(buggy=True).execute(spec, env)
        fixed = RakeHvxInterpreter(buggy=False).execute(spec, env)
        assert buggy.value != fixed.value

    def test_fixed_interpreter_masks_amounts(self):
        from repro.bitvector import bv
        from repro.isa.registry import load_isa

        loaded = load_isa("hvx")
        spec = loaded.spec("V6_vaslh")
        env = {"Vu": bv(0x0101, 1024), "Rt": bv(100, 32)}
        fixed = RakeHvxInterpreter(buggy=False).execute(spec, env)
        # Masked amount: 100 & 15 == 4.
        assert fixed.extract(15, 0).value == (0x0101 << 4) & 0xFFFF
