"""What persisted state is written with and keyed on.

Shared by the synthesis cache, the rulebook and the offline IR-generation
artifact store, and importing nothing heavier than the fault plane, so
that an IR-generation process can fingerprint and publish its artifact
without importing the synthesis stack.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro import faults

# Bumped whenever grammar generation (:mod:`repro.synthesis.grammar`)
# changes in a way that could alter which programs synthesis produces;
# persisted synthesis caches and the irgen artifact embed it in their
# fingerprints so stale entries are invalidated soundly.
GRAMMAR_VERSION = 1


def atomic_write(path: Path, text: str) -> None:
    """Durable write-to-temp + rename.

    Concurrent writers of identical content are safe, readers never
    observe a partially written file, and the ``fsync`` before the rename
    means a crash (even SIGKILL) can never publish a truncated entry —
    the worst outcome is a leaked ``.tmp-*`` file, which cache open
    reaps.  Shared by the synthesis cache and the irgen artifact store.
    """
    spec = faults.check("store.atomic_write", detail=path.name)
    if spec is not None:
        text = faults.transform_text(spec, text)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if spec is not None and spec.kind == "leak_tmp":
        leak_fd, _leak = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        os.close(leak_fd)
    # A crash between the durable write and the publish (injected here as
    # "exit"/"raise") leaves only .tmp litter, never a partial entry.
    faults.trip("store.atomic_write.crash", detail=path.name)
    try:
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
