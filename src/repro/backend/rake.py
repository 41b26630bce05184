"""The Rake baseline (ASPLOS'22) — synthesis over hand-written semantics.

Rake synthesizes HVX (and nominally ARM) code like Hydride, but from a
*manually implemented* instruction subset: 164 HVX and 200 ARM
instructions versus Hydride's full catalogs.  Three consequences the
paper measures, all modelled here:

* **coverage** — windows needing instructions outside the subset
  (``vrmpy`` variants, ``vshuffvdd``/``vdealvdd``, several dot-product
  and swizzle forms) either fail to compile or synthesize slower code;
* **fragility** — Rake "failed to compile 28 benchmarks"; windows whose
  depth exceeds Rake's tractable window, or that need unsupported
  reductions, raise :class:`CompileError`;
* **bugs** — Table 2 lists five semantics bugs in Rake's hand-written
  HVX interpreter (unmasked shift amounts); ``buggy_semantics=True``
  reproduces them for the differential-fuzzing experiment.
"""

from __future__ import annotations

import time

from repro.autollvm import build_dictionary
from repro.autollvm.intrinsics import AutoLLVMDictionary, AutoLLVMOp
from repro.backend.common import CompileError, CompiledKernel
from repro.backend.hydride import HydrideCompiler, rewrite_broadcasts
from repro.bitvector.bv import BitVector
from repro.halide import ir as hir
from repro.halide.lowering import LoweredKernel
from repro.synthesis import CegisOptions, MemoCache


def _rake_supported(spec_name: str, family: str) -> bool:
    """Rake's hand-implemented HVX subset (by family)."""
    unsupported_families = (
        "dot_rmpy",          # 4-way dot products
        "swizzle_shuffvdd",  # cross-vector pair shuffles (paper Fig. 5)
        "swizzle_dealvdd",
        "mul_partial",       # vmpyieoh / vmpyiewuh_acc
        "dot_dmpy_sat",      # saturating dot-product variants
        "predicated",
        "count_pop",
    )
    for prefix in unsupported_families:
        if family.startswith(prefix):
            return False
    return True


def rake_dictionary(base: AutoLLVMDictionary) -> AutoLLVMDictionary:
    """The AutoLLVM dictionary restricted to Rake's instruction subset."""
    ops: list[AutoLLVMOp] = []
    reverse: dict[str, AutoLLVMOp] = {}
    for op in base.ops:
        bindings = [
            b
            for b in op.bindings
            if b.isa != "hvx" or _rake_supported(b.spec.name, b.spec.family)
        ]
        if not bindings:
            continue
        restricted = AutoLLVMOp(op.name, op.class_id, op.eq_class, bindings)
        ops.append(restricted)
        for binding in bindings:
            reverse[binding.spec.name] = restricted
    return AutoLLVMDictionary(base.isas, ops, reverse)


# The instruction count Rake supports (used by the Table 1/eval text).
def rake_supported_count() -> int:
    from repro.isa.registry import load_catalog

    catalog = load_catalog("hvx")
    return sum(1 for s in catalog if _rake_supported(s.name, s.family))


class RakeCompiler:
    """Rake: Hydride-style synthesis, restricted subset, brittle windows."""

    name = "rake"

    def __init__(
        self,
        dictionary: AutoLLVMDictionary | None = None,
        cache: MemoCache | None = None,
        buggy_semantics: bool = False,
    ) -> None:
        base = dictionary or build_dictionary()
        self.dictionary = rake_dictionary(base)
        self.buggy_semantics = buggy_semantics
        # Rake explores smaller windows than Hydride (its tractability
        # ceiling is lower; the paper had to modify Halide sources to
        # expose patterns within reach).
        self._inner = HydrideCompiler(
            dictionary=self.dictionary,
            cache=cache if cache is not None else MemoCache(),
            cegis=CegisOptions(timeout_seconds=30.0, max_depth=2),
            max_window_size=12,
        )
        self._inner.name = self.name

    def compile(self, kernel: LoweredKernel, isa: str) -> CompiledKernel:
        if isa == "arm":
            # "Rake purports to support ARM, but fails to successfully
            # compile any benchmark."
            raise CompileError("rake: ARM backend fails to compile")
        if isa != "hvx":
            raise CompileError(f"rake: no {isa} backend")
        start = time.time()
        window = rewrite_broadcasts(kernel.window)
        self._check_window(window)
        compiled = self._inner.compile(kernel, isa)
        compiled.compiler = self.name
        compiled.compile_seconds = time.time() - start
        # Rake's generated code shows more register spills on some
        # kernels (the paper's add / max pool slowdowns).
        compiled.live_values += 4
        return compiled

    def _check_window(self, window: hir.HExpr) -> None:
        """Rake's brittleness: reject windows outside its reach."""
        for node in window.walk():
            if isinstance(node, hir.HReduceAdd) and node.factor > 2:
                raise CompileError(
                    "rake: reduction wider than its hand-written patterns"
                )
            if isinstance(node, hir.HShuffle):
                raise CompileError("rake: general shuffles unsupported")
        if window.depth() > 6:
            raise CompileError(
                "rake: expression deeper than its synthesis window "
                "(the paper modified Halide sources to avoid this)"
            )


# ----------------------------------------------------------------------
# Table 2: Rake's buggy hand-written HVX semantics
# ----------------------------------------------------------------------


class RakeHvxInterpreter:
    """A model of Rake's hand-implemented HVX interpreter.

    Table 2 of the paper lists five bugs, all of one species: shift
    amounts taken from a register are not masked to the element width
    before use.  With ``buggy=True`` this interpreter reproduces that
    behaviour; with ``buggy=False`` it applies the architectural masking.
    Differential fuzzing against the generated (parsed-from-pseudocode)
    semantics exposes exactly the buggy entries.
    """

    # (file, line, description) as reported in Table 2.
    KNOWN_BUGS = [
        ("halide/ir/interpreter.rkt", 536, "Semantics of ARS not masked."),
        ("hvx/interpreter.rkt", 1146, "ARS' operands not masked."),
        ("hvx/interpreter.rkt", 1163, "Rounding/Saturating ARS not masked."),
        ("hvx/interpreter.rkt", 795, "LS operands not masked."),
        ("hvx/interpreter.rkt", 802, "fused LS and accumulate not masked."),
    ]

    # Instruction families whose Rake semantics carry the masking bug.
    BUGGY_FAMILIES = (
        "shift_scalar_ashr",
        "shift_var_>>>",
        "shift_scalar_shl",
        "shift_var_<<",
    )

    def __init__(self, buggy: bool = True) -> None:
        self.buggy = buggy

    def shift_amount(self, raw: BitVector, elem_width: int) -> BitVector:
        """The shift-amount operand as Rake's interpreter computes it.

        Hardware masks shift amounts to log2(element width) bits; Rake's
        hand-written semantics use the raw register value (Table 2)."""
        if self.buggy:
            return raw.resize_unsigned(elem_width)
        mask = BitVector(elem_width - 1, raw.width)
        return raw.bvand(mask).resize_unsigned(elem_width)

    def execute(self, spec, env: dict[str, BitVector]) -> BitVector:
        """Run an HVX instruction under Rake's semantics."""
        from repro.bitvector.lanes import Vector

        if spec.family in ("shift_scalar_ashr", "shift_scalar_shl", "shift_scalar_lshr"):
            elem_width = spec.attributes["elem_width"]
            raw = env["Rt"].extract(6, 0)  # Rake reads the 7-bit field raw
            amount = self.shift_amount(raw, elem_width)
            kind = spec.family.rsplit("_", 1)[1]
            table = {
                "ashr": lambda x: x.bvashr(amount),
                "shl": lambda x: x.bvshl(amount),
                "lshr": lambda x: x.bvlshr(amount),
            }
            return Vector(env["Vu"], elem_width).map_lanes(table[kind]).bits
        if spec.family in ("shift_var_>>>", "shift_var_<<", "shift_var_>>"):
            elem_width = spec.attributes["elem_width"]
            vu = Vector(env["Vu"], elem_width)
            vv = Vector(env["Vv"], elem_width)
            kind = spec.family.rsplit("_", 1)[1]
            out = []
            for x, y in zip(vu.elems(), vv.elems()):
                amount = self.shift_amount(y, elem_width)
                if kind == ">>>":
                    out.append(x.bvashr(amount))
                elif kind == "<<":
                    out.append(x.bvshl(amount))
                else:
                    out.append(x.bvlshr(amount))
            from repro.bitvector.lanes import vector_from_elems

            return vector_from_elems(out).bits
        # Families Rake implements correctly defer to the reference.
        return spec.reference(env)
