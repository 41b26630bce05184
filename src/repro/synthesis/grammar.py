"""Pruned grammar generation (Section 4.3, ablated in Table 5).

The full grammar — every target instruction — makes synthesis
intractable.  Three pruning stages produce tractable grammars:

* **BVS** (bitvector-based screening): an equivalence class is kept only
  if some operation in its semantics matches an operation of the input
  expression *and* some member supports a vector length / element size
  present in the input; members with element sizes smaller than the
  input's minimum are dropped (information loss).
* **SBOS** (score-based operation selection): members are scored by
  matching operations, vector-length match and element-size match; the
  top ``k`` per class survive, with compute and type-conversion classes
  balanced.
* **Swizzles** are always included — as the five specialized patterns of
  Section 4.4 rather than a general permute.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

from repro.autollvm.intrinsics import AutoLLVMDictionary, AutoLLVMOp, TargetBinding
from repro.halide import ir as hir
from repro.hydride_ir.interp import resolved_input_widths
from repro.isa.registry import load_catalog
from repro.perf import global_counters
from repro.synthesis.cost import CostModel
from repro.synthesis.program import SInput, SWIZZLE_PATTERNS

# Immediate operands tried per instruction: the window's first few
# distinct constants (low byte).
MAX_IMM_CANDIDATES = 3


# Halide IR op name -> bitvector ops it may lower through.
_H_TO_BV = {
    "add": {"bvadd", "bvsaddsat", "bvuaddsat"},
    "sub": {"bvsub", "bvssubsat", "bvusubsat"},
    "mul": {"bvmul"},
    "min_s": {"bvsmin"},
    "max_s": {"bvsmax"},
    "min_u": {"bvumin"},
    "max_u": {"bvumax"},
    "and": {"bvand"},
    "or": {"bvor"},
    "xor": {"bvxor"},
    "shl": {"bvshl"},
    "lshr": {"bvlshr"},
    "ashr": {"bvashr"},
    "adds": {"bvsaddsat", "bvadd"},
    "addus": {"bvuaddsat", "bvadd"},
    "subs": {"bvssubsat", "bvsub"},
    "subus": {"bvusubsat", "bvsub"},
    "avg_u": {"bvuavg_round", "bvuavg"},
    "havg_u": {"bvuavg"},
    "havg_s": {"bvsavg"},
    "sext": {"sext"},
    "zext": {"zext"},
    "trunc": {"trunc"},
    "sat_s": {"saturate_to_signed"},
    "sat_u": {"saturate_to_unsigned"},
    "reduce_add": {"bvadd"},
    "eq": {"bveq"},
    "lt_s": {"bvslt"},
    "lt_u": {"bvult"},
    "gt_s": {"bvsgt"},
    "gt_u": {"bvugt"},
}

_CONVERSION_OPS = {"sext", "zext", "trunc", "saturate_to_signed", "saturate_to_unsigned"}

# Catalog family -> swizzle patterns that family natively implements.
_FAMILY_SWIZZLES = {
    "unpack_lo": {"interleave_lo"},
    "unpack_hi": {"interleave_hi"},
    "swizzle_shuff": {"interleave_single"},
    "swizzle_deal": {"deinterleave_single"},
    "swizzle_shuffvdd": {"interleave_full"},
    "swizzle_dealvdd": {"deinterleave_single"},
    "swizzle_ror": {"rotate_right"},
    "swizzle_zip": {"interleave_full", "interleave_lo", "interleave_hi"},
    "swizzle_uzp": {"deinterleave_single"},
    "swizzle_trn": {"interleave_lo"},
    "swizzle_ext": {"concat_lo", "concat_hi", "rotate_right"},
    "swizzle_combine": {"concat_lo"},
}


@lru_cache(maxsize=None)
def native_swizzles_for(isa: str) -> frozenset[str]:
    """Patterns the target catalog realizes with a single instruction.

    Reads ``spec.family`` off the generated (parse-free, memoised)
    catalog: a forked worker must never pay for ``load_isa`` here.
    Memoised per ISA, like the catalog it reads.
    """
    native: set[str] = set()
    for spec in load_catalog(isa):
        native |= _FAMILY_SWIZZLES.get(spec.family, set())
    return frozenset(native)


@dataclass(frozen=True)
class GrammarEntry:
    """One usable (instruction, immediate values) pair."""

    op: AutoLLVMOp
    binding: TargetBinding
    imm_values: tuple[int, ...]
    score: int = 0

    @property
    def name(self) -> str:
        return self.binding.spec.name

    def register_widths(self, values: tuple[int, ...] | None = None) -> list[int]:
        symbolic = self.binding.member.symbolic
        assignment = dict(
            zip(symbolic.param_names, values or self.binding.member.values())
        )
        func = symbolic.to_function(assignment)
        widths = resolved_input_widths(func, assignment)
        return [
            widths[inp.name] for inp in symbolic.inputs if not inp.is_immediate
        ]

    def output_bits(self, values: tuple[int, ...] | None = None) -> int:
        from repro.hydride_ir.interp import compute_width

        symbolic = self.binding.member.symbolic
        assignment = dict(
            zip(symbolic.param_names, values or self.binding.member.values())
        )
        func = symbolic.to_function(assignment)
        widths = resolved_input_widths(func, assignment)
        return compute_width(func.body, assignment, widths)

    def input_elem_widths(
        self, values: tuple[int, ...] | None = None
    ) -> list[int | None]:
        """Per register input: the element width its semantics slices it
        at (None when the input is consumed whole or at mixed widths).
        This types the synthesis grammar: a 16-bit-element multiply only
        composes with 16-bit-element producers."""
        from repro.hydride_ir.ast import BvExtract, BvVar

        symbolic = self.binding.member.symbolic
        assignment = dict(
            zip(symbolic.param_names, values or self.binding.member.values())
        )
        observed: dict[str, set[int]] = {}
        for node in symbolic.body.walk():
            if isinstance(node, BvExtract) and isinstance(node.src, BvVar):
                try:
                    width = node.width.evaluate(assignment)
                except KeyError:
                    continue
                observed.setdefault(node.src.name, set()).add(width)
        result: list[int | None] = []
        for inp in symbolic.inputs:
            if inp.is_immediate:
                continue
            widths = observed.get(inp.name, set())
            result.append(widths.pop() if len(widths) == 1 else None)
        return result


@dataclass
class GrammarOptions:
    """Pruning switches — the rows of Table 5."""

    bvs: bool = True
    sbos: bool = True
    k: int = 4
    include_all: bool = False  # "All target instructions" row
    top_n_by_score: int | None = None  # "Top 50 instructions" row


@dataclass
class Grammar:
    """The productions synthesis may use for one window.

    ``entries`` — the BVS/SBOS scan over every equivalence class — is
    computed on its first read: a window answered from a cache or a rule
    never enumerates, so it never pays for the scan.  The cost model is
    built eagerly (rule-served programs are costed with it).
    """

    isa: str
    inputs: list[SInput]
    swizzle_patterns: tuple[str, ...]
    cost_model: CostModel
    _scan: Callable[[], list[GrammarEntry]] = field(repr=False, compare=False)
    spec_out_bits: int = 0
    spec_out_elem_width: int = 0

    @cached_property
    def entries(self) -> list[GrammarEntry]:
        global_counters().grammar_builds += 1
        return self._scan()

    def size(self) -> int:
        """Number of target operations available (Table 5's grammar size)."""
        return len({e.name for e in self.entries})


# Operations that adjust types/layout rather than compute; always allowed
# inside an instruction's semantics regardless of the input expression.
_NEUTRAL_OPS = {"sext", "zext", "trunc", "concat", "extract", "ite"}

# Derived-operation closure: seeing these combinations in the input makes
# the keyed operations viable (e.g. (a + b + 1) >> 1 is an averaging op).
_CLOSURE_RULES: list[tuple[frozenset[str], frozenset[str]]] = [
    (frozenset({"bvadd", "bvlshr"}),
     frozenset({"bvuavg", "bvuavg_round"})),
    (frozenset({"bvadd", "bvashr"}),
     frozenset({"bvsavg", "bvsavg_round", "bvashr"})),
    (frozenset({"bvsub", "bvsmax"}),
     frozenset({"bvabs", "bvsmin"})),
    (frozenset({"bvsmax", "bvneg"}), frozenset({"bvabs"})),
]


def _spec_profile(expr: hir.HExpr):
    """Operations, bit sizes and element widths of the input expression."""
    bv_ops: set[str] = set()
    for op in expr.ops_used():
        bv_ops |= _H_TO_BV.get(op, set())
    # Negation appears as (0 - x).
    for node in expr.walk():
        if isinstance(node, hir.HBin) and node.op == "sub":
            if isinstance(node.left, hir.HConst) and node.left.value == 0:
                bv_ops.add("bvneg")
    for trigger, derived in _CLOSURE_RULES:
        if trigger <= bv_ops:
            bv_ops |= derived
    elem_widths: set[int] = set()
    bit_sizes: set[int] = set()
    for node in expr.walk():
        node_type = node.type
        elem_widths.add(node_type.elem_width)
        bit_sizes.add(node_type.bits)
    # Vector-register sizes one halving/doubling away are also relevant
    # (widening/narrowing instructions produce them).
    for bits in list(bit_sizes):
        bit_sizes.add(bits * 2)
        if bits % 2 == 0:
            bit_sizes.add(bits // 2)
    return bv_ops, elem_widths, bit_sizes


def _binding_ops(binding: TargetBinding) -> frozenset[str]:
    """Operators in the binding's semantics, memoised on the binding."""
    if binding._ops is None:
        binding._ops = frozenset(
            op
            for node in binding.member.symbolic.body.walk()
            if (op := getattr(node, "op", None)) is not None
        )
    return binding._ops


def _score(binding: TargetBinding, spec_ops, elem_widths, bit_sizes) -> int:
    score = len(_binding_ops(binding) & spec_ops)
    elem_width = binding.spec.attributes.get("elem_width")
    if elem_width in elem_widths:
        score += 1
    if binding.spec.output_width in bit_sizes:
        score += 1
    return score


def _imm_candidates(expr: hir.HExpr) -> list[int]:
    constants: list[int] = []
    for node in expr.walk():
        if isinstance(node, hir.HConst) and node.value not in constants:
            constants.append(node.value & 0xFF)
    return constants[:MAX_IMM_CANDIDATES]


def build_grammar(
    expr: hir.HExpr,
    isa: str,
    dictionary: AutoLLVMDictionary,
    options: GrammarOptions | None = None,
) -> Grammar:
    """Generate the (pruned) grammar for one input window.

    The entry scan is deferred to the first read of ``Grammar.entries``
    (or ``size()``); everything else is built here.
    """
    options = options or GrammarOptions()
    inputs = [
        SInput(name, load_type.lanes, load_type.elem_width)
        for name, load_type in sorted(expr.loads().items())
    ]
    return Grammar(
        isa=isa,
        inputs=inputs,
        swizzle_patterns=SWIZZLE_PATTERNS,
        cost_model=CostModel(native_swizzles_for(isa)),
        spec_out_bits=expr.type.bits,
        spec_out_elem_width=expr.type.elem_width,
        _scan=partial(_scan_entries, expr, isa, dictionary, options),
    )


def _scan_entries(
    expr: hir.HExpr,
    isa: str,
    dictionary: AutoLLVMDictionary,
    options: GrammarOptions,
) -> list[GrammarEntry]:
    """BVS screening and SBOS top-k over every class of ``isa``."""
    spec_ops, elem_widths, bit_sizes = _spec_profile(expr)
    min_elem = min(
        node.type.elem_width for node in expr.walk() if node.type.elem_width > 1
    )
    imm_pool = _imm_candidates(expr) or [1]

    entries: list[GrammarEntry] = []
    for op in dictionary.ops_for_isa(isa):
        bindings = op.bindings_for(isa)
        op_ops = op.ops_used()
        is_conversion = bool(op_ops & _CONVERSION_OPS) and not (
            op_ops & {"bvmul", "bvsmin", "bvsmax", "bvumin", "bvumax"}
        )
        if options.bvs and not options.include_all:
            # (a) operation screening: every compute op in the class's
            # semantics must be justified by the input expression (or its
            # derived-op closure); a class containing operations the input
            # cannot need is eliminated wholesale.
            compute_ops = op_ops - _NEUTRAL_OPS
            if compute_ops and not (compute_ops & spec_ops):
                continue
            if not compute_ops <= (spec_ops | _NEUTRAL_OPS):
                continue
            widths_supported = {
                b.spec.attributes.get("elem_width") for b in bindings
            }
            sizes_supported = {b.spec.output_width for b in bindings}
            if not (widths_supported & elem_widths) and not (
                sizes_supported & bit_sizes
            ):
                continue
        scored: list[GrammarEntry] = []
        for binding in bindings:
            if options.bvs and not options.include_all:
                # (b) element sizes below the input's minimum lose bits.
                elem_width = binding.spec.attributes.get("elem_width", 0)
                if isinstance(elem_width, int) and 1 < elem_width < min_elem:
                    continue
                if binding.spec.output_width not in bit_sizes:
                    continue
            score = _score(binding, spec_ops, elem_widths, bit_sizes)
            imm_arity = binding.member.symbolic.imm_arity()
            if imm_arity == 0:
                scored.append(GrammarEntry(op, binding, (), score))
            else:
                for value in imm_pool:
                    scored.append(
                        GrammarEntry(op, binding, (value,) * imm_arity, score)
                    )
        if not scored:
            continue
        scored.sort(key=lambda e: (-e.score, e.name))
        if options.sbos and not options.include_all:
            # (c) top-k per class; conversions are kept on their own
            # budget so compute ops do not crowd them out.
            budget = options.k if not is_conversion else max(options.k, 2)
            scored = scored[:budget]
        entries.extend(scored)

    if options.top_n_by_score is not None:
        entries.sort(key=lambda e: (-e.score, e.name))
        entries = entries[: options.top_n_by_score]

    return entries
