"""``repro.perf.PerfCounters``: a counter is declared once, as a field."""

import dataclasses

from repro.perf import PerfCounters
from repro.perf.counters import PHASES


def _int_fields():
    return [
        f.name for f in dataclasses.fields(PerfCounters) if f.type == "int"
    ]


def test_every_int_field_is_snapshotted_and_reset():
    counters = PerfCounters()
    names = _int_fields()
    assert "candidates_evaluated" in names and "specs_parsed" in names
    for offset, name in enumerate(names, start=1):
        setattr(counters, name, offset)
    counters.add_phase("sat", 1.5)
    snap = counters.snapshot()
    assert {name: snap[name] for name in names} == {
        name: offset for offset, name in enumerate(names, start=1)
    }
    assert snap["seconds_sat"] == 1.5
    counters.reset()
    assert all(getattr(counters, name) == 0 for name in names)
    assert not any(counters.snapshot().values())


def test_snapshot_key_order_is_phases_then_declaration_order():
    assert list(PerfCounters().snapshot()) == [
        f"seconds_{name}" for name in PHASES
    ] + _int_fields()
