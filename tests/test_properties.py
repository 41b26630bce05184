"""Cross-cutting property-based tests on the core invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvector import BitVector
from repro.hydride_ir.interp import interpret, resolved_input_widths, to_term
from repro.isa.registry import load_isa
from repro.smt.eval import evaluate
from repro.smt.simplify import simplify


@pytest.fixture(scope="module")
def x86():
    return load_isa("x86")


@pytest.fixture(scope="module")
def hvx():
    return load_isa("hvx")


class TestSemanticsInvariants:
    """Invariants that must hold for every parsed instruction."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_interpretation_is_deterministic(self, x86, data):
        spec = data.draw(st.sampled_from([s.name for s in x86.catalog.specs[:80]]))
        semantics = x86.semantics[spec]
        widths = resolved_input_widths(semantics, {})
        env = {
            name: BitVector(data.draw(st.integers(0, (1 << w) - 1)), w)
            for name, w in widths.items()
        }
        assert interpret(semantics, env).value == interpret(semantics, env).value

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_term_lowering_agrees_with_interpreter(self, x86, data):
        names = [
            s.name for s in x86.catalog.specs if s.output_width <= 128
        ][:60]
        spec = data.draw(st.sampled_from(names))
        semantics = x86.semantics[spec]
        widths = resolved_input_widths(semantics, {})
        env = {
            name: BitVector(data.draw(st.integers(0, (1 << w) - 1)), w)
            for name, w in widths.items()
        }
        term = to_term(semantics)
        assert evaluate(term, env).value == interpret(semantics, env).value

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_simplified_term_preserves_semantics(self, hvx, data):
        names = [s.name for s in hvx.catalog.specs if s.output_width <= 1024][:40]
        spec = data.draw(st.sampled_from(names))
        semantics = hvx.semantics[spec]
        widths = resolved_input_widths(semantics, {})
        env = {
            name: BitVector(data.draw(st.integers(0, (1 << w) - 1)), w)
            for name, w in widths.items()
        }
        term = to_term(semantics)
        assert evaluate(simplify(term), env).value == evaluate(term, env).value


class TestClassInvariants:
    """Invariants over the generated equivalence classes."""

    @pytest.fixture(scope="class")
    def classes(self):
        from repro.irgen import classes_and_stats
        from repro.isa.registry import CORE_ISAS
        from repro.similarity.eqclass import restrict_classes

        classes, _ = classes_and_stats()
        return restrict_classes(classes, set(CORE_ISAS))

    def test_partition(self, classes):
        seen = set()
        for cls in classes:
            for member in cls.members:
                assert member.name not in seen, member.name
                seen.add(member.name)

    def test_members_share_parameter_count(self, classes):
        for cls in classes:
            counts = {len(m.symbolic.param_names) for m in cls.members}
            assert len(counts) == 1, cls.member_names()[:4]

    def test_random_members_semantically_equal(self, classes):
        """Spot-check: two members of one class, instantiated at the same
        parameter values, compute the same function."""
        from repro.similarity.equivalence import instantiate_term

        rng = random.Random(9)
        multi = [c for c in classes if len(c.members) >= 2]
        for cls in rng.sample(multi, min(8, len(multi))):
            a, b = rng.sample(cls.members, 2)
            values = a.values()
            try:
                term_a = instantiate_term(a.symbolic, values)
                term_b = instantiate_term(b.symbolic, values, b.arg_order)
            except Exception:
                continue  # b cannot be instantiated at a's values
            variables = term_a.variables()
            for _ in range(12):
                env = {
                    name: BitVector(rng.getrandbits(w), w)
                    for name, w in variables.items()
                }
                assert evaluate(term_a, env).value == evaluate(term_b, env).value

    def test_fixed_parameters_fixed(self, classes):
        for cls in classes:
            for position, value in cls.fixed_params.items():
                for member in cls.members:
                    assert member.values()[position] == value
