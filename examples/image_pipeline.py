"""An image-processing pipeline compiled for three architectures.

Writes a small camera-style pipeline (gaussian denoise -> sobel edges) in
the Halide DSL and compiles each stage with Hydride and both baselines on
every target, reporting simulated runtimes — a miniature of the paper's
Figure 6 experiment on user-written code.

Run:  python examples/image_pipeline.py
"""

from repro.autollvm import build_dictionary
from repro.backend import HalideNativeCompiler, HydrideCompiler, LlvmGenericCompiler
from repro.halide.dsl import Buffer, Func, Var, absolute, cast, sat_cast, saturating_add
from repro.halide.lowering import lower_func
from repro.isa.registry import isa_row
from repro.synthesis import CegisOptions, MemoCache

x, y = Var("x"), Var("y")
WIDTH, HEIGHT = 1024, 768


def gaussian_stage(lanes: int):
    src = Buffer("raw", 8, signed=False)
    f = Func("denoise")
    total = None
    for dy, wy in ((-1, 1), (0, 2), (1, 1)):
        for dx, wx in ((-1, 1), (0, 2), (1, 1)):
            term = cast(16, src[y + dy, x + dx], signed=False) * (wy * wx)
            total = term if total is None else total + term
    f[x, y] = sat_cast(8, total >> 4, signed=False)
    f.vectorize(x, lanes).parallel(y)
    return f


def sobel_stage(lanes: int):
    src = Buffer("denoised", 16)
    f = Func("edges")
    gx = (src[y - 1, x + 1] + 2 * src[y, x + 1] + src[y + 1, x + 1]) - (
        src[y - 1, x - 1] + 2 * src[y, x - 1] + src[y + 1, x - 1]
    )
    gy = (src[y + 1, x - 1] + 2 * src[y + 1, x] + src[y + 1, x + 1]) - (
        src[y - 1, x - 1] + 2 * src[y - 1, x] + src[y - 1, x + 1]
    )
    f[x, y] = saturating_add(absolute(gx), absolute(gy))
    f.vectorize(x, lanes).parallel(y)
    return f


def main() -> None:
    dictionary = build_dictionary(("x86", "hvx", "arm"))
    for isa in ("x86", "hvx", "arm"):
        print(f"================ {isa} ================")
        hydride = HydrideCompiler(
            dictionary=dictionary,
            cache=MemoCache(),
            cegis=CegisOptions(timeout_seconds=15.0, scale_factor=8),
        )
        compilers = [
            ("hydride", hydride),
            ("halide ", HalideNativeCompiler()),
            ("llvm   ", LlvmGenericCompiler()),
        ]
        for stage_name, builder, elem_width in (
            ("denoise", gaussian_stage, 8),
            ("sobel  ", sobel_stage, 16),
        ):
            lanes = isa_row(isa).target.vector_bits // elem_width
            kernel = lower_func(builder(lanes), {"x": WIDTH, "y": HEIGHT})
            print(f"  stage {stage_name}:")
            for name, compiler in compilers:
                compiled = compiler.compile(kernel, isa)
                sim = compiled.simulate()
                print(f"    {name}: {sim.runtime_us:9.1f} us "
                      f"({sim.cycles_per_iteration:.2f} cyc/iter, bound {sim.bound})")
        print()


if __name__ == "__main__":
    main()
