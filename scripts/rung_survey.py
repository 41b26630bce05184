#!/usr/bin/env python
"""Which verification rung accepted each synthesized window.

Usage:
    python scripts/rung_survey.py KERNEL:ISA [KERNEL:ISA ...]

Compiles each named registry kernel for its ISA with ``HydrideCompiler``,
a fresh ``MemoCache`` per pair and ``timeout_seconds=20``, and prints one
JSON object per pair:

* ``rungs``: the verdicts of the windows synthesized afresh, per rung
  (structural, exhaustive, sat, probabilistic, fuzz-battery, rule);
* ``memo_hits``: windows served by the pair's cache;
* ``failures``: windows whose synthesis failed (each is then split);
* ``splits``: windows split, for failure or for size;
* ``full_width_proved`` / ``full_width_sampled``: how the scaled-up
  programs were checked at full width;
* ``programs``: the sha256 of the ``program_signature`` of every program
  synthesis returned (memo hits and rule matches included), in order —
  two runs served the same programs iff their digests are equal;
* ``seconds``: wall time of the pair.

Run from the repo root; adds ``src/`` to ``sys.path`` when the package is
not installed.  Point ``REPRO_IRGEN_CACHE`` at a built irgen store to skip
the dictionary build.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time
from collections import Counter

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.autollvm import build_dictionary  # noqa: E402
from repro.backend import hydride as hydride_backend  # noqa: E402
from repro.perf import global_counters  # noqa: E402
from repro.synthesis import CegisOptions, MemoCache, SynthesisFailure  # noqa: E402
from repro.synthesis.rules import program_signature  # noqa: E402
from repro.workloads.registry import benchmark_named  # noqa: E402

TIMEOUT_SECONDS = 20.0


def survey(kernel: str, isa: str, dictionary) -> dict:
    """Compile one kernel for one ISA and tally its windows' verdicts."""
    rungs: Counter[str] = Counter()
    tally = {"memo_hits": 0, "failures": 0}
    programs = hashlib.sha256()
    synthesize = hydride_backend.synthesize

    def recording(*args, **kwargs):
        try:
            result = synthesize(*args, **kwargs)
        except SynthesisFailure:
            tally["failures"] += 1
            raise
        programs.update(program_signature(result.program).encode() + b"\n")
        if result.stats.cache_hit:
            tally["memo_hits"] += 1
        else:
            rungs[result.stats.verified] += 1
        return result

    compiler = hydride_backend.HydrideCompiler(
        dictionary=dictionary,
        cache=MemoCache(),
        cegis=CegisOptions(timeout_seconds=TIMEOUT_SECONDS),
    )
    perf = global_counters()
    proved, sampled = perf.full_width_proved, perf.full_width_sampled
    splits = 0
    started = time.monotonic()
    hydride_backend.synthesize = recording
    try:
        for lowered in benchmark_named(kernel).lower(isa):
            splits += compiler.compile(lowered, isa).accounting.splits
    finally:
        hydride_backend.synthesize = synthesize
    return {
        "pair": f"{kernel}:{isa}",
        "rungs": dict(sorted(rungs.items())),
        **tally,
        "splits": splits,
        "full_width_proved": perf.full_width_proved - proved,
        "full_width_sampled": perf.full_width_sampled - sampled,
        "programs": programs.hexdigest(),
        "seconds": round(time.monotonic() - started, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs", nargs="+", metavar="KERNEL:ISA")
    args = parser.parse_args(argv)
    pairs = []
    for pair in args.pairs:
        kernel, sep, isa = pair.partition(":")
        if not sep or not kernel or not isa:
            parser.error(f"expected KERNEL:ISA, got {pair!r}")
        pairs.append((kernel, isa))
    dictionary = build_dictionary()
    for kernel, isa in pairs:
        print(json.dumps(survey(kernel, isa, dictionary), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
