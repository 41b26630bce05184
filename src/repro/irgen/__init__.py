"""Parallel, persistent offline IR generation.

The paper's Automatic IR Generator runs once, offline, per ISA set; this
package makes that run *parallel* (sharded similarity checking, pooled
spec parsing — :mod:`repro.irgen.pipeline`) and *persistent* (a
fingerprinted on-disk artifact holding the equivalence classes and, by
extension, the AutoLLVM dictionary — :mod:`repro.irgen.artifact`).

Consumers opt in through the environment::

    REPRO_IRGEN_CACHE=/path/to/cache   # artifact root directory
    REPRO_IRGEN_JOBS=8                 # worker processes for cold builds

With the cache set, :func:`repro.autollvm.intrinsics.build_dictionary`,
the compilation service and the experiment runners all load the artifact
(sub-second warm start) instead of re-parsing vendor specs and re-running
~1.2k equivalence checks; a missing or stale artifact is rebuilt in place.
``python -m repro.irgen build|stats`` manages the store directly.
"""

from __future__ import annotations

import os
import time

from repro.irgen.artifact import (
    IrgenArtifact,
    irgen_fingerprint,
    load_artifact,
    partition_digest,
    persist_artifact,
    store_inventory,
)
from repro.irgen.pipeline import build_artifact
from repro.isa.registry import CORE_ISAS

__all__ = [
    "IrgenArtifact",
    "artifact_classes_and_stats",
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
ENV_JOBS = "REPRO_IRGEN_JOBS"

# In-process memo: (root, isas, fingerprint, extra) -> IrgenArtifact.
# Sits in front of the disk store exactly like the lru_cache on
# build_equivalence_classes sits in front of the serial engine.
_MEMO: dict[tuple, IrgenArtifact] = {}


def cache_root_from_env() -> str | None:
    root = os.environ.get(ENV_CACHE, "").strip()
    return root or None


def default_jobs() -> int:
    value = os.environ.get(ENV_JOBS, "").strip()
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return os.cpu_count() or 1


def ensure_artifact(
    isas: tuple[str, ...],
    root: str,
    jobs: int | None = None,
    force: bool = False,
    extra: tuple[str, ...] = (),
) -> IrgenArtifact:
    """The artifact for ``isas`` under ``root``: loaded warm when the
    fingerprint matches, rebuilt (and persisted) otherwise.

    ``force`` rebuilds even on a fingerprint hit.  ``extra`` salts the
    fingerprint (test hook).  Results are memoised per process.
    """
    isas = tuple(isas)
    fingerprint = irgen_fingerprint(isas, extra)
    key = (str(root), isas, fingerprint, extra)
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
        artifact = build_artifact(isas, jobs or default_jobs(), extra)
        persist_artifact(root, artifact)
    _MEMO[key] = artifact
    return artifact


def clear_memo() -> None:
    """Drop the in-process artifact memo (test hook)."""
    _MEMO.clear()


def artifact_classes_and_stats(isas: tuple[str, ...]):
    """(classes, stats) from the env-configured artifact store, or None.

    Any failure — unwritable root, corrupt payload, unknown ISA — falls
    back to None so callers degrade to the in-memory serial path instead
    of crashing an otherwise healthy run.
    """
    root = cache_root_from_env()
    if root is None:
        return None
    try:
        artifact = ensure_artifact(tuple(isas), root)
    except Exception:
        return None
    return artifact.classes, artifact.stats


def classes_and_stats(isas: tuple[str, ...] = CORE_ISAS):
    """(classes, stats, source): artifact-backed when the env opts in,
    otherwise the serial in-memory engine."""
    result = artifact_classes_and_stats(tuple(isas))
    if result is not None:
        classes, stats = result
        return classes, stats, "artifact"
    from repro.similarity.engine import build_equivalence_classes

    classes, stats = build_equivalence_classes(tuple(isas))
    return classes, stats, "engine"
