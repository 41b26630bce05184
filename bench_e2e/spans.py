"""In-memory spans recorded from outside the program.

A span is ``{"id", "trace", "name", "parent", "start", "end"}`` with
monotonic-clock seconds; the clock is system-wide on Linux, so spans
recorded in a forked worker merge with the parent's without skew.  The
span name *is* the layer (``grammar.build``, ``store.lookup`` ...): a
layer's self time is the sum over its spans of duration minus the part
their children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace: str = ""
        self._next = 0
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def _new(self, name: str, parent, start: float, end) -> dict:
        record = {
            "id": self._next, "trace": self.trace, "name": name,
            "parent": parent, "start": start, "end": end,
        }
        self._next += 1
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        record = self._new(name, self.current, time.monotonic(), None)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def phase(self, name: str, parent: dict, seconds: float) -> None:
        """A child of ``parent`` known only by its duration (a perf
        counter delta).  Placed at the parent's start: only durations
        enter the self-time arithmetic."""
        if seconds > 0:
            self._new(name, parent["id"], parent["start"],
                      parent["start"] + seconds)

    def adopt(self, spans: list[dict]) -> None:
        """Merge spans recorded in a forked worker.

        The worker's recorder was forked from this one mid-span, so its
        spans already hang off the span that was open at the fork and
        their ids continue from ours."""
        self.spans.extend(spans)
        self._next = max([self._next] + [s["id"] + 1 for s in spans])


def timed(recorder: Recorder, name: str, func):
    """``func`` wrapped so every call is one span."""

    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return func(*args, **kwargs)

    return wrapper


class SpanProxy:
    """Stand-in for an injectable collaborator (cache, rulebook, reuse
    store): the named methods become spans, everything else passes
    through."""

    def __init__(self, target, recorder: Recorder, methods: dict[str, str]):
        self._target = target
        self._recorder = recorder
        self._methods = methods

    def __getattr__(self, attr: str):
        value = getattr(self._target, attr)
        name = self._methods.get(attr)
        if name is None:
            return value
        return timed(self._recorder, name, value)

    def __len__(self) -> int:
        return len(self._target)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    covered: dict[int, float] = {}
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] = covered.get(record["parent"], 0.0) + (
                record["end"] - record["start"]
            )
    return {
        record["id"]: max(
            0.0, record["end"] - record["start"] - covered.get(record["id"], 0.0)
        )
        for record in spans
    }


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Layer (span name) -> summed self time."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for record in spans:
        out[record["name"]] = out.get(record["name"], 0.0) + own[record["id"]]
    return out
