"""The parallel offline IR-generation pipeline.

Five phases, each timed into :mod:`repro.perf` (``irgen_*`` counters):

``parse``
    Per-ISA spec parsing + canonicalisation + constant extraction, fanned
    across a process pool in contiguous catalog slices.  Workers
    regenerate the (millisecond-cheap) catalogs themselves — spec
    ``reference`` callables don't pickle — and return their slice as a
    node table plus symbolic records (plain lists, see
    :mod:`repro.hydride_ir.serialize`), with counts of the specs whose
    loops were lowered as loops and of those unrolled and re-rolled.  The
    parent decodes every slice into one table, so the symbolics share
    each distinct subtree.

``bucket``
    Group the symbolics by :func:`repro.similarity.engine.shard_key`.
    ``insert`` and the permutation pass only ever compare instructions
    whose signature *and* operator multiset agree, so these groups are
    *exactly* the units of independent pass-1/2 work: sharding cannot add
    or drop a single comparison relative to the serial engine.

``check``
    One pool task per group runs :meth:`SimilarityEngine.run_pass12` on a
    private engine and returns its classes as ``(global_index,
    arg_order)`` member lists.  Tasks are global indices: forked workers
    read the symbolics they inherited from the parent, so no IR is
    pickled to them.  The parent rebuilds the classes over its
    own symbolic objects and sorts them by the global index of each
    class's first member — pass-1 creation order is first-member order and
    pass-2 merges always fold the later class into the earlier one, so
    this reproduces the serial engine's class ordering bit-for-bit.

``refine``
    Each class representative's offset-hole refinement, one pool task per
    class (its position and its representative's global index); a
    refinement comes back as a one-record node table.

``merge``
    Pass 3 (offset-hole refinement) merges *across* the original groups —
    hole insertion changes signatures — so it runs in the parent over the
    combined classes, from the refinements precomputed in the pool; only
    the cross-class merge loop is serial.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from functools import partial

from repro import faults
from repro.hydride_ir.serialize import NodeTable
from repro.isa.registry import load_catalog, parse_slice, supported_isas
from repro.perf import global_counters, phase_timer
from repro.similarity.constants import SymbolicSemantics, extract_constants
from repro.similarity.engine import SimilarityEngine, shard_key
from repro.similarity.eqclass import ClassMember, EquivalenceClass
from repro.similarity.holes import synthesize_offset_hole
from repro.smt.solver import EquivalenceChecker

from repro.irgen.artifact import (
    IrgenArtifact,
    irgen_fingerprint,
    symbolic_from_record,
    symbolic_record,
    timestamp,
)

# Below this many specs an ISA is parsed as a single slice: the pickle +
# fork overhead of extra tasks costs more than the parse itself.
MIN_PARSE_SLICE = 32


def _fresh_checker() -> EquivalenceChecker:
    # Same seed as the serial engine's default checker: worker verdicts
    # must reproduce the serial run's.
    return EquivalenceChecker(seed=1)


def _encode(symbolics: list[SymbolicSemantics]) -> tuple[list, list]:
    """``symbolics`` as ``(node table rows, records)``: plain lists."""
    table = NodeTable()
    records = [symbolic_record(table, symbolic) for symbolic in symbolics]
    return table.rows, records


def _decode(table: NodeTable, rows: list, records: list) -> list[SymbolicSemantics]:
    nodes = table.extend(rows)
    return [symbolic_from_record(nodes, record) for record in records]


# ----------------------------------------------------------------------
# Worker entry points (module-level: Pool pickles the callable)
# ----------------------------------------------------------------------


def _parse_task(task: tuple[str, int, int]):
    """Parse + canonicalise + extract one catalog slice.

    Returns ``(rows, records, parse_seconds, extract_seconds,
    lowered_direct, rerolled)`` so the parent can decode the slice and
    aggregate worker-side phase time and lowering counts into its own.
    """
    isa, start, stop = task
    perf = global_counters()
    direct, rerolled = perf.specs_lowered_direct, perf.specs_rerolled
    began = time.monotonic()
    parsed = parse_slice(isa, start, stop)
    mid = time.monotonic()
    symbolics = [extract_constants(func, isa) for _name, func in parsed]
    extracted = time.monotonic() - mid
    return (
        *_encode(symbolics), mid - began, extracted,
        perf.specs_lowered_direct - direct, perf.specs_rerolled - rerolled,
    )


def _check_task(symbolics: list[SymbolicSemantics], indices: list[int]):
    """Run passes 1–2 over one shard group, given by global indices.

    Returns ``(classes, stats)`` where each class is a list of
    ``(global_index, arg_order)`` members in engine order, and ``stats``
    carries this worker's check/merge/truncation counts.
    """
    group = [symbolics[g] for g in indices]
    began = time.monotonic()
    engine = SimilarityEngine(_fresh_checker())
    classes = engine.run_pass12(group)
    index_of = {id(s): g for g, s in zip(indices, group)}
    encoded = [
        [(index_of[id(m.symbolic)], list(m.arg_order)) for m in cls.members]
        for cls in classes
    ]
    stats = {
        "checks": engine.stats.checks,
        "permute_merges": engine.stats.permute_merges,
        "attempt_truncations": engine.stats.attempt_truncations,
        "checker_stats": dict(engine.checker.stats),
        "seconds": time.monotonic() - began,
    }
    return encoded, stats


def _refine_task(symbolics: list[SymbolicSemantics], task: tuple[int, int]):
    """Precompute the offset-hole refinement of the class at ``position``,
    whose representative has global index ``index``.  Returns
    ``(position, refinement, checker_stats)``: the refinement is
    ``(rows, records)`` of one symbolic or None."""
    position, index = task
    checker = _fresh_checker()
    refined = synthesize_offset_hole(symbolics[index], checker)
    encoded = None if refined is None else _encode([refined])
    return position, encoded, dict(checker.stats)


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------


# In a pool worker: the leading arguments of every task call, handed
# over once by the pool's initializer.
_SHARED: tuple = ()


def _adopt(shared: tuple) -> None:
    global _SHARED
    _SHARED = shared


def _call(func, task):
    return func(*_SHARED, task)


def _pool_map(func, tasks, jobs: int, *shared):
    """``[func(*shared, task) for task in tasks]``, over a fork pool, or
    inline when one job (or one task).

    A fork pool's workers inherit ``shared`` with the initializer's
    arguments instead of unpickling it, so tasks that name symbolics by
    global index send no IR to a worker.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [func(*shared, task) for task in tasks]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context("spawn")
    with context.Pool(
        processes=min(jobs, len(tasks)), initializer=_adopt, initargs=(shared,)
    ) as pool:
        return pool.map(partial(_call, func), tasks)


def _add_counts(into: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def _parse_tasks(isas: tuple[str, ...], jobs: int) -> list[tuple[str, int, int]]:
    tasks: list[tuple[str, int, int]] = []
    for isa in isas:
        count = len(load_catalog(isa))
        width = max(MIN_PARSE_SLICE, -(-count // max(1, jobs)))
        tasks.extend(
            (isa, start, min(start + width, count))
            for start in range(0, count, width)
        )
    return tasks


# ----------------------------------------------------------------------
# The pipeline driver
# ----------------------------------------------------------------------


def build_artifact(jobs: int = 1, extra: tuple[str, ...] = ()) -> IrgenArtifact:
    """Run the full sharded pipeline over every registered ISA; returns a
    freshly built artifact.

    With ``jobs <= 1`` the identical phase structure runs inline.  Any
    ``jobs`` gives the partition :meth:`SimilarityEngine.run` gives over
    the same symbolics, with the same accounting.

    IR trees are acyclic, so the cyclic collector would only walk the
    growing heap over and over: it is paused for the build (forked
    workers inherit the pause) and restored, as it was, on the way out.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _build(jobs, extra)
    finally:
        if collecting:
            gc.enable()


def _build(jobs: int, extra: tuple[str, ...]) -> IrgenArtifact:
    isas = supported_isas()
    faults.trip("irgen.build", detail="+".join(isas))
    perf = global_counters()
    began = time.monotonic()
    phases: dict[str, float] = {}

    # -- parse + extract ----------------------------------------------
    parse_began = time.monotonic()
    results = _pool_map(_parse_task, _parse_tasks(isas, jobs), jobs)
    table = NodeTable()
    symbolics: list[SymbolicSemantics] = []
    parse_seconds = extract_seconds = 0.0
    lowered_direct = rerolled = 0
    for rows, records, parsed, extracted, direct, unrolled in results:
        symbolics.extend(_decode(table, rows, records))
        parse_seconds += parsed
        extract_seconds += extracted
        lowered_direct += direct
        rerolled += unrolled
    perf.add_phase("irgen_parse", parse_seconds)
    perf.add_phase("irgen_extract", extract_seconds)
    phases["parse"] = parse_seconds
    phases["extract"] = extract_seconds
    phases["parse_wall"] = time.monotonic() - parse_began

    # -- bucket --------------------------------------------------------
    with phase_timer("irgen_bucket"):
        bucket_began = time.monotonic()
        groups: dict[tuple, list[int]] = {}
        for index, symbolic in enumerate(symbolics):
            groups.setdefault(shard_key(symbolic), []).append(index)
        phases["bucket"] = time.monotonic() - bucket_began

    # -- check (passes 1–2, sharded) ----------------------------------
    check_began = time.monotonic()
    # Largest groups first: better tail latency when one group dominates.
    tasks = sorted(groups.values(), key=lambda g: -len(g))
    outcomes = _pool_map(_check_task, tasks, jobs, symbolics)
    combined: list[tuple[int, EquivalenceClass]] = []
    worker_stats = {
        "checks": 0, "permute_merges": 0, "attempt_truncations": 0,
        "seconds": 0.0,
    }
    # Ladder verdicts of every check and refine worker's checker.
    worker_rungs: dict[str, int] = {}
    for encoded, stats in outcomes:
        for members in encoded:
            cls = EquivalenceClass(-1)
            cls.members = [
                ClassMember(symbolics[gidx], tuple(order))
                for gidx, order in members
            ]
            combined.append((members[0][0], cls))
        for name in ("checks", "permute_merges", "attempt_truncations"):
            worker_stats[name] += stats[name]
        worker_stats["seconds"] += stats["seconds"]
        _add_counts(worker_rungs, stats["checker_stats"])
    # Serial creation order: first-member global index (see module doc).
    combined.sort(key=lambda pair: pair[0])
    classes = [cls for _first, cls in combined]
    perf.add_phase("irgen_check", worker_stats["seconds"])
    phases["check"] = worker_stats["seconds"]
    phases["check_wall"] = time.monotonic() - check_began

    # -- refine (per-representative hole synthesis, pooled) ------------
    with phase_timer("irgen_refine"):
        refine_began = time.monotonic()
        refinements = _pool_map(
            _refine_task,
            [(pos, first) for pos, (first, _cls) in enumerate(combined)],
            jobs,
            symbolics,
        )
        refined = {}
        for pos, encoded, rungs in refinements:
            if encoded is not None:
                refined[pos] = _decode(table, *encoded)[0]
            _add_counts(worker_rungs, rungs)
        phases["refine"] = time.monotonic() - refine_began

    # -- merge (pass 3 + finalisation, centralised) -------------------
    with phase_timer("irgen_merge"):
        merge_began = time.monotonic()
        engine = SimilarityEngine(_fresh_checker())
        engine.stats.instructions = len(symbolics)
        engine.stats.checks = worker_stats["checks"]
        engine.stats.permute_merges = worker_stats["permute_merges"]
        engine.stats.attempt_truncations = worker_stats["attempt_truncations"]
        engine.stats.specs_lowered_direct = lowered_direct
        engine.stats.specs_rerolled = rerolled
        final = engine.finish(classes, refined)
        # finish() recorded the parent checker's ladder stats; fold the
        # workers' in, so the totals are those of one serial checker.
        _add_counts(engine.stats.checker_stats, worker_rungs)
        engine.stats.uninstantiable += engine.stats.checker_stats.pop(
            "uninstantiable", 0
        )
        phases["merge"] = time.monotonic() - merge_began

    engine.stats.seconds = time.monotonic() - began
    return IrgenArtifact(
        isas=isas,
        fingerprint=irgen_fingerprint(extra=extra),
        classes=final,
        stats=engine.stats,
        phase_seconds=phases,
        jobs=jobs,
        built_at=timestamp(),
    )
