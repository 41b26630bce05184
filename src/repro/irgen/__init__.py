"""Parallel, persistent offline IR generation.

The paper's Automatic IR Generator runs once, offline, over every
target's specs; this package makes that run *parallel* (sharded
similarity checking, pooled spec parsing — :mod:`repro.irgen.pipeline`)
and *persistent* (a fingerprinted on-disk artifact holding the
equivalence classes and, by extension, the AutoLLVM dictionary —
:mod:`repro.irgen.artifact`).  There is one artifact, over every
registered ISA; an ISA subset is a restriction of it, never a second
build.

Consumers opt in through the environment::

    REPRO_IRGEN_CACHE=/path/to/cache   # artifact root directory

With the cache set, :func:`repro.autollvm.intrinsics.build_dictionary`,
the compilation service and the experiment runners all load the artifact
(sub-second warm start) instead of re-parsing vendor specs and re-running
~1.2k equivalence checks; a missing or stale artifact is rebuilt in place.
``python -m repro.irgen build|stats`` manages the store directly.
"""

from __future__ import annotations

import os
import time

from repro import faults
from repro.irgen.artifact import (
    IrgenArtifact,
    irgen_fingerprint,
    load_artifact,
    partition_digest,
    persist_artifact,
    store_inventory,
)
from repro.irgen.pipeline import build_artifact
from repro.isa.registry import supported_isas

__all__ = [
    "IrgenArtifact",
    "build_artifact",
    "cache_root_from_env",
    "classes_and_stats",
    "default_jobs",
    "ensure_artifact",
    "irgen_fingerprint",
    "load_artifact",
    "partition_digest",
    "persist_artifact",
    "store_inventory",
]

ENV_CACHE = "REPRO_IRGEN_CACHE"

# In-process memo: (root, fingerprint) -> IrgenArtifact.
# Sits in front of the disk store exactly like the lru_cache on
# build_equivalence_classes sits in front of the serial engine.
_MEMO: dict[tuple, IrgenArtifact] = {}


def cache_root_from_env() -> str | None:
    root = os.environ.get(ENV_CACHE, "").strip()
    return root or None


def default_jobs() -> int:
    """Worker processes for a cold build: one per CPU."""
    return os.cpu_count() or 1


def ensure_artifact(
    root: str,
    jobs: int | None = None,
    force: bool = False,
    extra: tuple[str, ...] = (),
) -> IrgenArtifact:
    """The artifact under ``root``: loaded warm when the fingerprint
    matches, rebuilt (and persisted) otherwise.

    ``force`` rebuilds even on a fingerprint hit.  ``extra`` salts the
    fingerprint (test hook).  Results are memoised per process.  The
    write is best-effort, like the synthesis cache's: a store that
    cannot be written costs the next process a rebuild, never this one
    its built partition.
    """
    fingerprint = irgen_fingerprint(extra=extra)
    key = (str(root), fingerprint)
    if not force and key in _MEMO:
        return _MEMO[key]
    artifact = None
    if not force:
        from repro.perf import phase_timer

        with phase_timer("irgen_load"):
            began = time.monotonic()
            artifact = load_artifact(root, fingerprint)
            if artifact is not None:
                artifact.phase_seconds["load"] = time.monotonic() - began
    if artifact is None:
        artifact = build_artifact(jobs or default_jobs(), extra)
        try:
            persist_artifact(root, artifact)
        except OSError:
            faults.recovered()
    _MEMO[key] = artifact
    return artifact


def clear_memo() -> None:
    """Drop the in-process artifact memo (test hook)."""
    _MEMO.clear()


def classes_and_stats():
    """(classes, stats, source) of the one partition over every registered
    ISA: from the env-configured artifact store when there is one,
    otherwise from the serial in-memory engine.

    A load or build that fails falls back to the engine, so callers
    degrade instead of crashing an otherwise healthy run; an unwritable
    root is no failure (:func:`ensure_artifact`).
    """
    root = cache_root_from_env()
    if root is not None:
        try:
            artifact = ensure_artifact(root)
        except Exception:
            artifact = None
        if artifact is not None:
            return artifact.classes, artifact.stats, "artifact"
    from repro.similarity.engine import build_equivalence_classes

    classes, stats = build_equivalence_classes(supported_isas())
    return classes, stats, "engine"
