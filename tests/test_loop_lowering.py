"""Loops lowered as loops: the direct lowering against unroll + reroll.

``lower_program`` lowers the destination's loop nest once with symbolic
loop variables; ``unroll_program`` runs every loop and leaves the slices
to ``reroll``.  After ``canonicalize`` the two must serialise to the same
bytes for every spec of every ISA, and each loop shape below must take
the path ``_loop_nest`` promises.
"""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro
from repro.hydride_ir.ast import BvConcat, BvIte, ForConcat
from repro.hydride_ir.serialize import NodeTable
from repro.hydride_ir.transforms import canonicalize
from repro.isa.pseudo_core import (
    PseudocodeError,
    _loop_nest,
    dialect_semantics,
    parse_pseudocode,
    unrolled_semantics,
)
from repro.isa.registry import load_catalog, supported_isas
from repro.isa.spec import InstructionSpec, OperandSpec
from repro.perf import global_counters

SRC = Path(__file__).resolve().parents[1] / "src"


def _dialect(isa):
    return import_module(f"repro.isa.{isa}.parser").DIALECT


def _serialised(func) -> str:
    """``func`` as node-table JSON: equal strings iff equal IR."""
    table = NodeTable()
    inputs = [
        [i.name, table.add(i.width), int(i.is_immediate)] for i in func.inputs
    ]
    body = table.add(func.body)
    return json.dumps(
        [func.name, inputs, body, func.output_width.value, table.rows],
        separators=(",", ":"),
    )


def _lower_both(dialect, spec):
    direct = dialect_semantics(dialect, spec)
    reference = unrolled_semantics(dialect, spec)
    return direct, reference


# Specs per ISA that lower their loop nest as loops / that are unrolled
# and re-rolled; the rest (one assignment, or one iteration) take neither.
PATH_COUNTS = {
    "x86": (664, 44),
    "hvx": (123, 18),
    "arm": (394, 52),
    "rvv": (295, 0),
}


@pytest.mark.parametrize("isa", supported_isas())
def test_direct_lowering_matches_unroll_and_reroll(isa):
    """Byte-identical canonical semantics on every spec of the catalog."""
    dialect, specs = _dialect(isa), load_catalog(isa).specs
    perf = global_counters()
    before = perf.specs_lowered_direct, perf.specs_rerolled
    direct = [canonicalize(dialect_semantics(dialect, spec)) for spec in specs]
    taken = (
        perf.specs_lowered_direct - before[0], perf.specs_rerolled - before[1]
    )
    reference = [canonicalize(unrolled_semantics(dialect, spec)) for spec in specs]
    mismatches = [
        ours.name for ours, theirs in zip(direct, reference)
        if _serialised(ours) != _serialised(theirs)
    ]
    assert mismatches == []
    assert taken == PATH_COUNTS[isa]


# -- loop shapes -------------------------------------------------------


def _x86_spec(text, operands=(("a", 128), ("b", 128)), output_width=128):
    return InstructionSpec(
        name="_test",
        isa="x86",
        asm="test",
        operands=tuple(OperandSpec(name, width) for name, width in operands),
        output_width=output_width,
        pseudocode=text,
        extension="TEST",
        family="test",
        latency=1.0,
        throughput=1.0,
    )


def _check(text, direct, **spec_args):
    """Lower ``text`` both ways; assert the static decision, that the
    direct lowering is (or is not) a loop nest, and identical canonical
    forms.  Returns the direct lowering's body."""
    dialect = _dialect("x86")
    spec = _x86_spec(text, **spec_args)
    assert (_loop_nest(parse_pseudocode(dialect, text)) is not None) == direct[0]
    lowered, reference = _lower_both(dialect, spec)
    assert isinstance(lowered.body, ForConcat) == direct[1]
    assert _serialised(canonicalize(lowered)) == _serialised(
        canonicalize(reference)
    )
    return lowered.body


FLAT = (
    "FOR j := 0 to 7\n"
    "    i := j*16\n"
    "    dst[i+15:i] := a[i+15:i] + b[i+15:i]\n"
    "ENDFOR\n"
)


class TestDirectShapes:
    def test_flat_loop(self):
        body = _check(FLAT, (True, True))
        assert body.count.value == 8 and not isinstance(body.body, ForConcat)

    def test_masked_loop_becomes_ite(self):
        body = _check(
            "FOR j := 0 to 7\n"
            "    i := j*16\n"
            "    IF k[j:j] == 1 THEN\n"
            "        dst[i+15:i] := a[i+15:i] + b[i+15:i]\n"
            "    ELSE\n"
            "        dst[i+15:i] := a[i+15:i]\n"
            "    FI\n"
            "ENDFOR\n",
            (True, True),
            operands=(("k", 8), ("a", 128), ("b", 128)),
        )
        assert isinstance(body.body, BvIte)

    def test_nonzero_start(self):
        _check(
            "FOR j := 2 to 9\n"
            "    dst[(j-2)*16+15:(j-2)*16] := a[(j-2)*16+15:(j-2)*16]\n"
            "ENDFOR\n",
            (True, True),
        )

    def test_nest_that_reroll_flattens(self):
        body = _check(
            "FOR g := 0 to 1\n"
            "    FOR e := 0 to 3\n"
            "        i := (g*4 + e)*16\n"
            "        dst[i+15:i] := b[i+15:i] - a[i+15:i]\n"
            "    ENDFOR\n"
            "ENDFOR\n",
            (True, True),
        )
        assert body.count.value == 8 and not isinstance(body.body, ForConcat)

    def test_nest_that_stays_nested(self):
        # Reversed elements within each 32-bit group: not affine in the
        # flattened iteration, so reroll keeps both loops.
        body = _check(
            "FOR g := 0 to 3\n"
            "    FOR e := 0 to 1\n"
            "        dst[(g*2+e)*16+15:(g*2+e)*16] := a[(g*2+1-e)*16+15:(g*2+1-e)*16]\n"
            "    ENDFOR\n"
            "ENDFOR\n",
            (True, True),
        )
        assert body.count.value == 4 and body.body.count.value == 2

    def test_single_iteration_outer_loop(self):
        body = _check(
            "FOR g := 0 to 0\n"
            "    FOR e := 0 to 7\n"
            "        dst[e*16+15:e*16] := a[(7-e)*16+15:(7-e)*16]\n"
            "    ENDFOR\n"
            "ENDFOR\n",
            (True, True),
        )
        assert body.count.value == 8

    def test_extend_isa_specs(self):
        """The two specs examples/extend_isa.py publishes."""
        sys.path.insert(0, str(SRC.parent / "examples"))
        try:
            example = import_module("extend_isa")
        finally:
            sys.path.pop(0)
        for spec in example.NEW_SPECS:
            lowered, reference = _lower_both(_dialect("x86"), spec)
            assert isinstance(lowered.body, ForConcat)
            assert isinstance(reference.body, BvConcat)
            assert _serialised(canonicalize(lowered)) == _serialised(
                canonicalize(reference)
            )


class TestFallbacks:
    def test_condition_on_loop_variable(self):
        _check(
            "FOR j := 0 to 7\n"
            "    i := j*16\n"
            "    IF j < 4 THEN\n"
            "        dst[i+15:i] := a[i+15:i]\n"
            "    ELSE\n"
            "        dst[i+15:i] := b[i+15:i]\n"
            "    FI\n"
            "ENDFOR\n",
            (False, False),
        )

    def test_non_affine_index(self):
        _check(
            "FOR j := 0 to 7\n"
            "    i := j*16\n"
            "    s := ((j + 1) % 8)*16\n"
            "    dst[i+15:i] := a[s+15:s]\n"
            "ENDFOR\n",
            (False, False),
        )

    def test_two_slices_per_iteration(self):
        _check(
            "FOR j := 0 to 3\n"
            "    dst[j*32+15:j*32] := a[j*16+15:j*16]\n"
            "    dst[j*32+31:j*32+16] := b[j*16+15:j*16]\n"
            "ENDFOR\n",
            (False, False),
        )

    def test_loop_variable_as_value(self):
        _check(
            "FOR j := 0 to 7\n"
            "    dst[j*16+15:j*16] := a[j*16+15:j*16] + j\n"
            "ENDFOR\n",
            (False, False),
        )

    def test_value_carried_across_iterations(self):
        # A running sum: each iteration reads the previous one's temp.
        _check(
            "s := a[15:0]\n"
            "FOR j := 0 to 7\n"
            "    s := s + b[j*16+15:j*16]\n"
            "    dst[j*16+15:j*16] := s\n"
            "ENDFOR\n",
            (False, False),
        )

    def test_descending_destination_layout(self):
        # Admitted statically; the slices tile the destination backwards,
        # so the nest is unrolled when its layout is seen.
        _check(
            "FOR j := 0 to 7\n"
            "    dst[(7-j)*16+15:(7-j)*16] := a[j*16+15:j*16]\n"
            "ENDFOR\n",
            (True, False),
        )

    def test_single_iteration_takes_neither_path(self):
        body = _check(
            "FOR j := 0 to 0\n"
            "    dst[127:0] := a[127:0] + b[127:0]\n"
            "ENDFOR\n",
            (True, False),
        )
        assert not isinstance(body, BvConcat)

    def test_error_names_the_failing_iteration(self):
        # Out of range from iteration 4 on: the nest is unrolled, so the
        # error is the unrolled lowering's.
        text = (
            "FOR j := 0 to 7\n"
            "    dst[j*16+15:j*16] := a[j*32+15:j*32]\n"
            "ENDFOR\n"
        )
        assert _loop_nest(parse_pseudocode(_dialect("x86"), text)) is not None
        message = r"slice \[128, 144\) out of range"
        with pytest.raises(PseudocodeError, match=message):
            dialect_semantics(_dialect("x86"), _x86_spec(text))


# -- canonical loop names ------------------------------------------------


def test_canonical_form_independent_of_parse_history():
    """A spec serialises the same alone and after its whole catalog was
    lowered, re-rolled and canonicalised."""
    dialect = _dialect("x86")
    spec = load_catalog("x86").by_name("_mm_unpacklo_epi8")
    alone = _serialised(canonicalize(dialect_semantics(dialect, spec)))
    for other in load_catalog("x86"):
        canonicalize(unrolled_semantics(dialect, other))
    assert _serialised(canonicalize(dialect_semantics(dialect, spec))) == alone
    assert '"_i0"' in alone


# -- what an IR-generation process imports -------------------------------


HEAVY = (
    "repro.synthesis", "repro.halide", "repro.backend", "repro.autollvm",
    "repro.workloads",
)

# What ``python -m repro.irgen`` runs, minus its exit.
_RUN_CLI = """
import json, sys
from repro.irgen.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_irgen_build_imports_no_synthesis_stack(tmp_path):
    """A cold build and a cache hit import only the IR-generation layers."""
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    for extra in ([], ["--expect-cached"]):
        result = subprocess.run(
            [sys.executable, "-c", _RUN_CLI, "build", "--cache-dir",
             str(tmp_path), "--jobs", "2", *extra],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        modules = json.loads(result.stdout.splitlines()[-1])
        loaded = {m for m in modules if m.startswith(HEAVY)}
        assert loaded == set(), (extra, sorted(loaded)[:5])


@pytest.mark.parametrize("name", repro.__all__)
def test_public_names_resolve(name):
    assert getattr(repro, name) is not None
