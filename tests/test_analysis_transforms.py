"""Property tests: IR transforms preserve well-typedness and semantics.

For a corpus sample of every ISA, each transform's output must (1) still
pass the repro.analysis type-and-width checker and (2) agree with the
untransformed semantics on random concrete inputs.
"""

import random
from importlib import import_module

import pytest

from repro.analysis import Severity, check_semantics
from repro.bitvector.bv import BitVector
from repro.hydride_ir.interp import interpret, resolved_input_widths
from repro.hydride_ir.transforms import canonicalize
from repro.hydride_ir.transforms.constprop import propagate_constants
from repro.hydride_ir.transforms.reroll import reroll
from repro.hydride_ir.transforms.rewrite import rewrite_bottom_up
from repro.isa.pseudo_core import unrolled_semantics

SAMPLE_STRIDE = 53  # every 53rd instruction: broad but cheap
TRIALS = 4


def _raw_parse(isa):
    """Parsed-but-not-canonicalised semantics for a sample of the catalog."""
    if isa == "x86":
        from repro.isa.x86 import generate_x86_catalog, x86_semantics

        catalog, parse = generate_x86_catalog(), x86_semantics
    elif isa == "hvx":
        from repro.isa.hvx import generate_hvx_catalog, hvx_semantics

        catalog, parse = generate_hvx_catalog(), hvx_semantics
    else:
        from repro.isa.arm import generate_arm_catalog, arm_semantics

        catalog, parse = generate_arm_catalog(), arm_semantics
    specs = sorted(catalog, key=lambda s: s.name)[::SAMPLE_STRIDE]
    return [(spec, parse(spec)) for spec in specs]


def _assert_clean(func, isa, stage):
    errors = [
        d
        for d in check_semantics(func, isa=isa, stage=stage)
        if d.severity is Severity.ERROR
    ]
    assert errors == [], [d.format() for d in errors]


def _random_env(func, rng):
    widths = resolved_input_widths(func, func.params)
    return {
        name: BitVector(rng.getrandbits(width), width)
        for name, width in widths.items()
    }


def _assert_same_semantics(before, after, name):
    rng = random.Random(sum(map(ord, name)))  # stable across processes
    for _ in range(TRIALS):
        env = _random_env(before, rng)
        got_before = interpret(before, env)
        got_after = interpret(after, env)
        assert got_before.value == got_after.value, name
        assert got_before.width == got_after.width, name


@pytest.mark.parametrize("isa", ["x86", "hvx", "arm"])
class TestTransformProperties:
    def test_reroll_preserves(self, isa):
        # Most specs lower their loops as loops; reroll's input is the
        # unrolled lowering.
        dialect = import_module(f"repro.isa.{isa}.parser").DIALECT
        for spec, _func in _raw_parse(isa):
            func = unrolled_semantics(dialect, spec)
            after = func.with_body(reroll(func.body))
            _assert_clean(after, isa, "reroll")
            _assert_same_semantics(func, after, spec.name)

    def test_constprop_preserves(self, isa):
        for spec, func in _raw_parse(isa):
            after = func.with_body(propagate_constants(func.body))
            _assert_clean(after, isa, "constprop")
            _assert_same_semantics(func, after, spec.name)

    def test_canonicalize_preserves(self, isa):
        for spec, func in _raw_parse(isa):
            after = canonicalize(func)
            _assert_clean(after, isa, "canonicalize")
            _assert_same_semantics(func, after, spec.name)

    def test_identity_rewrite_preserves(self, isa):
        for spec, func in _raw_parse(isa):
            after = func.with_body(rewrite_bottom_up(func.body, lambda e: e))
            _assert_clean(after, isa, "rewrite")
            _assert_same_semantics(func, after, spec.name)
