"""Translation of synthesized programs to AutoLLVM IR (Section 3.5).

"The code synthesized by HYDRIDE's Code Synthesizer is Rosette code with
target-agnostic instructions represented as opaque function calls.  The
Rosette-to-LLVM Translator translates the synthesized code to AutoLLVM IR
instructions."  Here the synthesized program is an :class:`SNode` DAG and
the output is a straight-line :class:`repro.autollvm.llvmir.Function` of
AutoLLVM intrinsic calls; register views lower to ``autollvm.view.*``
helper intrinsics and swizzle patterns to ``autollvm.swizzle.*`` calls,
which the target backends resolve to native shuffles when they exist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.autollvm.llvmir import (
    Function,
    ImmOperand,
    Instruction,
    Value,
    type_for_bits,
)
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SInput,
    SNode,
    SOp,
    SSlice,
    SSwizzle,
)


@dataclass
class TranslationResult:
    function: Function
    # Number of AutoLLVM intrinsic calls emitted (compute + swizzle).
    op_count: int = 0
    swizzle_count: int = 0
    view_count: int = 0


class Translator:
    """Emits one LLVM function per synthesized window."""

    def __init__(self) -> None:
        self._fresh = itertools.count()

    def _value(self, bits: int, elem_width: int) -> Value:
        return Value(f"t{next(self._fresh)}", type_for_bits(bits, elem_width))

    def translate(self, program: SNode, name: str, elem_width: int) -> TranslationResult:
        inputs: dict[str, Value] = {}
        for node in sorted(
            (n for n in program.walk() if isinstance(n, SInput)),
            key=lambda n: n.name,
        ):
            inputs.setdefault(
                node.name, Value(node.name, type_for_bits(node.bits, node.elem_width))
            )
        function = Function(name, list(inputs.values()))
        result = TranslationResult(function)
        cache: dict[int, Value] = {}

        def emit(node: SNode) -> Value:
            cached = cache.get(id(node))
            if cached is not None:
                return cached
            value = _emit(node)
            cache[id(node)] = value
            return value

        def _emit(node: SNode) -> Value:
            if isinstance(node, SInput):
                return inputs[node.name]
            if isinstance(node, SConstant):
                out = self._value(node.bits, node.elem_width)
                function.add(
                    Instruction(
                        out,
                        "autollvm.view.splat",
                        [ImmOperand(node.value), ImmOperand(node.elem_width)],
                    )
                )
                result.view_count += 1
                return out
            if isinstance(node, SSlice):
                src = emit(node.src)
                out = self._value(node.bits, _elem_of(node))
                function.add(
                    Instruction(
                        out,
                        "autollvm.view.slice",
                        [src, ImmOperand(1 if node.high else 0)],
                    )
                )
                result.view_count += 1
                return out
            if isinstance(node, SConcat):
                high = emit(node.high_part)
                low = emit(node.low_part)
                out = self._value(node.bits, _elem_of(node))
                function.add(
                    Instruction(out, "autollvm.view.concat", [high, low])
                )
                result.view_count += 1
                return out
            if isinstance(node, SSwizzle):
                args = [emit(a) for a in node.args]
                out = self._value(node.bits, node.elem_width)
                operands = list(args) + [ImmOperand(node.elem_width)]
                if node.pattern == "rotate_right":
                    operands.append(ImmOperand(node.amount))
                function.add(
                    Instruction(out, f"autollvm.swizzle.{node.pattern}", operands)
                )
                result.swizzle_count += 1
                result.op_count += 1
                return out
            assert isinstance(node, SOp)
            args = [emit(a) for a in node.args]
            free = node.op.free_positions
            member_values = node.binding.member.values()
            immediates = [ImmOperand(member_values[i]) for i in free]
            # Instruction-level immediates (shift amounts) ride after the
            # class parameters.
            immediates += [ImmOperand(v) for v in node.imm_values]
            out = self._value(
                node.bits, node.binding.spec.attributes.get("elem_width", 0) or 0
            )
            # Register operands are in member order; the AutoLLVM intrinsic
            # takes them in class-canonical order.
            order = node.binding.member.arg_order
            inverse = {member_index: pos for pos, member_index in enumerate(order)}
            canonical = [args[inverse[i]] for i in range(len(args))] if args else []
            function.add(
                Instruction(
                    out,
                    node.op.name,
                    canonical + immediates,
                    comment=node.binding.spec.name,
                )
            )
            result.op_count += 1
            return out

        function.ret = emit(program)
        return result


def _elem_of(node: SNode) -> int:
    for child in node.walk():
        if isinstance(child, (SInput, SConstant, SSwizzle)):
            return child.elem_width
    return 0


def translate_program(program: SNode, name: str = "window", elem_width: int = 0) -> TranslationResult:
    return Translator().translate(program, name, elem_width)
