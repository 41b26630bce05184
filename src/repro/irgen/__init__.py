"""Parallel, persistent offline IR generation.

The paper's Automatic IR Generator runs once, offline, over every
target's specs; this package makes that run *parallel* (sharded
similarity checking, pooled spec parsing — :mod:`repro.irgen.pipeline`)
and *persistent* (a fingerprinted on-disk artifact holding the
equivalence classes and, by extension, the AutoLLVM dictionary —
:mod:`repro.irgen.artifact`).  There is one artifact, over every
registered ISA; an ISA subset is a restriction of it, never a second
build.

Consumers opt in to the store through the environment::

    REPRO_IRGEN_CACHE=/path/to/cache   # artifact root directory

With the cache set, :func:`repro.autollvm.intrinsics.build_dictionary`,
the compilation service and the experiment runners all load the artifact
(sub-second warm start) instead of re-parsing vendor specs and re-running
~1.5k equivalence checks; a missing or stale artifact is rebuilt in place.
Without it, each process runs the same pipeline build once and keeps the
artifact in memory.  ``python -m repro.irgen build|stats`` manages the
store directly.
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

# In-process memo: (root or None, fingerprint) -> IrgenArtifact.
_MEMO: dict[tuple, IrgenArtifact] = {}


def cache_root_from_env() -> str | None:
    root = os.environ.get(ENV_CACHE, "").strip()
    return root or None


def default_jobs() -> int:
    """Worker processes for a cold build: one per CPU."""
    return os.cpu_count() or 1


def ensure_artifact(
    root: str | None,
    jobs: int | None = None,
    force: bool = False,
    extra: tuple[str, ...] = (),
) -> IrgenArtifact:
    """The artifact under ``root``: loaded warm when the fingerprint
    matches, rebuilt (and persisted) otherwise.  With no ``root`` there
    is no store: the artifact is built and kept in memory only.

    ``force`` rebuilds even on a fingerprint hit.  ``extra`` salts the
    fingerprint (test hook).  Results are memoised per process.  The
    write is best-effort, like the synthesis cache's: a store that
    cannot be written costs the next process a rebuild, never this one
    its built partition.
    """
    fingerprint = irgen_fingerprint(extra=extra)
    key = (None if root is None else str(root), fingerprint)
    if not force and key in _MEMO:
        return _MEMO[key]
    artifact = None
    if root is not None and not force:
        from repro.perf import phase_timer

        with phase_timer("irgen_load"):
            began = time.monotonic()
            artifact = load_artifact(root, fingerprint)
            if artifact is not None:
                artifact.phase_seconds["load"] = time.monotonic() - began
    if artifact is None:
        artifact = build_artifact(jobs or default_jobs(), extra)
        if root is not None:
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
    """(classes, stats) of the one partition over every registered ISA:
    the artifact of the env-configured store (:func:`ensure_artifact`),
    or, with none configured, the same build kept in memory."""
    artifact = ensure_artifact(cache_root_from_env())
    return artifact.classes, artifact.stats
