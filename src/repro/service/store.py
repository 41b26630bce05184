"""Persistent, content-addressed synthesis cache.

Layout under a cache root directory::

    <root>/
      stats.json                     # telemetry of the most recent runs
      <isa>/<fingerprint16>/
        meta.json                    # full fingerprint + versions
        e-<sha256(key)[:32]>.json    # one positive entry (program + cost)
        f-<sha256(key)[:32]>.json    # one negative entry (failed window)

The fingerprint (see :func:`repro.synthesis.serialize.dictionary_fingerprint`)
hashes the AutoLLVM dictionary structure plus the grammar/format versions,
so a regenerated dictionary lands in a fresh namespace and stale entries
are never replayed; ``gc`` removes namespaces whose fingerprint no longer
matches the current dictionary.

Reads are per key: a cache reads a window's entry file when it is first
asked for that window, never the whole namespace, so opening one costs
the same however many entries it holds.  Writes are atomic
(write-to-temp + ``os.replace``) and idempotent, which makes concurrent
write-through from multiple worker processes safe: two workers racing on
the same window write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from pathlib import Path

from repro import faults
from repro.autollvm.intrinsics import AutoLLVMDictionary
from repro.halide import ir as hir
from repro.isa.registry import supported_isas
from repro.persist import atomic_write
from repro.synthesis.cache import (
    CacheEntry,
    MemoCache,
    canonical_key,
    check_stored_program,
)
from repro.synthesis.serialize import (
    SERIALIZE_VERSION,
    SerializeError,
    dictionary_fingerprint,
    entry_from_json,
    entry_to_json,
)

STATS_FILE = "stats.json"
FINGERPRINT_DIR_CHARS = 16
# Where the removed cross-window reuse store kept its ``r-*.json``
# suites.  Nothing reads it any more; ``gc`` deletes it.
_DEAD_REUSE_DIR = "reuse"

# Leftover ``.tmp-*`` files older than this are reaped on cache open.
# The age guard keeps a cache opening *now* from unlinking a temp file a
# live concurrent writer is about to rename into place.
TMP_REAP_AGE_SECONDS = 60.0

# Random inputs each hit is evaluated on before it is served.  One is
# enough to refute an entry that is wrong on most inputs, which is what
# rot (a flipped immediate, a program saved against other semantics)
# produces; the entries themselves were verified when they were stored.
LOOKUP_CHECK_TRIALS = 1


def _key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:32]


def reap_tmp(
    directory: str | Path,
    min_age_seconds: float = TMP_REAP_AGE_SECONDS,
    recursive: bool = False,
) -> int:
    """Unlink stale ``.tmp-*`` litter left by killed writers.

    Returns the number of files removed.  Races with concurrent reapers
    and writers are tolerated (missing files are skipped; young files are
    left for their writer to rename).
    """
    directory = Path(directory)
    pattern = "**/.tmp-*" if recursive else ".tmp-*"
    now = time.time()
    reaped = 0
    for path in directory.glob(pattern):
        try:
            if now - path.stat().st_mtime < min_age_seconds:
                continue
            path.unlink()
            reaped += 1
        except OSError:
            continue
    if reaped:
        faults.recovered(reaped)
    return reaped


class PersistentCache(MemoCache):
    """A :class:`MemoCache` backed by an on-disk store.

    Opening a namespace reads nothing but ``meta.json``: each
    ``lookup``/``lookup_failure`` reads the one ``e-<hash>.json`` /
    ``f-<hash>.json`` file of its key the first time this object is
    asked for that key, and answers from memory after that.  A warm
    job therefore costs one file read per window, however large the
    namespace has grown, and an entry another process wrote after this
    one opened is still found.  ``store``/``store_failure`` write
    through to disk.  A file that fails to deserialize (corrupt,
    unreadable, or an instruction that no longer exists) is never
    served: it is counted once in ``load_errors`` and the window simply
    re-synthesizes and overwrites it.  Negative entries carry the CEGIS
    budget they failed under, so a timeout recorded by a reduced-budget
    retry never poisons a later full-budget run (see
    :meth:`MemoCache.lookup_failure`).  Readers that need every entry
    (the rule distiller) call :meth:`entries`, the one full scan.
    Stale ``.tmp-*`` litter from killed writers is reaped on open.
    """

    def __init__(
        self,
        root: str | Path,
        isa: str,
        dictionary: AutoLLVMDictionary,
        fingerprint: str | None = None,
    ) -> None:
        super().__init__()
        self.isa = isa
        self.dictionary = dictionary
        self.fingerprint = fingerprint or dictionary_fingerprint(dictionary)
        self.root = Path(root)
        self.dir = self.root / isa / self.fingerprint[:FINGERPRINT_DIR_CHARS]
        self.dir.mkdir(parents=True, exist_ok=True)
        self.load_errors = 0
        self.write_errors = 0
        # Entries this object wrote (store / store_failure / put_entry).
        self.writes = 0
        # Concrete checks of cache hits (see lookup()).
        self.screened = 0
        self.screen_failures = 0
        # Names of the entry files already read (or written) by this
        # object: each is read at most once, so a corrupt file is
        # charged to load_errors once.
        self._read: set[str] = set()
        self.tmp_reaped = reap_tmp(self.dir)
        self._write_meta()

    # -- disk I/O -------------------------------------------------------

    def _write_meta(self) -> None:
        meta = self.dir / "meta.json"
        if not meta.exists():
            self._best_effort_write(
                meta,
                json.dumps(
                    {
                        "fingerprint": self.fingerprint,
                        "isa": self.isa,
                        "serialize_version": SERIALIZE_VERSION,
                    },
                    sort_keys=True,
                ),
            )

    def _best_effort_write(self, path: Path, text: str) -> None:
        """Write-through that degrades instead of failing the compile.

        The disk cache is an accelerator: an I/O error publishing an
        entry must cost exactly that entry (the window re-synthesizes
        next time), never the compilation that produced it.
        """
        try:
            atomic_write(path, text)
        except OSError:
            self.write_errors += 1
            faults.recovered()

    def _write_entry(self, name: str, text: str) -> None:
        self._read.add(name)
        self.writes += 1
        self._best_effort_write(self.dir / name, text)

    def _read_entry(self, path: Path) -> None:
        """Parse one ``e-``/``f-`` file into memory, at most once.

        A missing file is a plain miss; a corrupt or unreadable one is
        charged to ``load_errors`` and adopts nothing.
        """
        if path.name in self._read:
            return
        try:
            text = path.read_text()
        except FileNotFoundError:
            return  # nothing stored under this key (yet)
        except OSError:
            text = None
        self._read.add(path.name)
        try:
            faults.trip("store.load", detail=path.name)
            if text is None:
                raise OSError(f"cannot read {path.name}")
            if path.name.startswith("e-"):
                key, entry = entry_from_json(text, self.dictionary)
                self._entries[key] = entry
            else:
                obj = json.loads(text)
                key = obj["key"]
                budget = obj.get("budget")
                budget = None if budget is None else float(budget)
                self._failures.add(key)
                self._failure_budgets[key] = budget
        except (
            SerializeError, json.JSONDecodeError, KeyError, TypeError,
            ValueError, OSError,
        ):
            self.load_errors += 1
            faults.recovered()

    def _read_key(self, key: str) -> None:
        digest = _key_hash(key)
        self._read_entry(self.dir / f"e-{digest}.json")
        self._read_entry(self.dir / f"f-{digest}.json")

    def entries(self) -> dict[str, CacheEntry]:
        """Every positive entry of the namespace, for bulk readers.

        The one full scan: reads every ``e-``/``f-`` file this object
        has not read yet (each corrupt file is counted once) and returns
        the positive entries now in memory.
        """
        for pattern in ("e-*.json", "f-*.json"):
            for path in sorted(self.dir.glob(pattern)):
                self._read_entry(path)
        return dict(self._entries)

    def lookup_failure(self, expr: hir.HExpr, isa: str) -> bool:
        key = canonical_key(expr, isa)
        self._read_key(key)
        return self._lookup_failure_key(key)

    # -- concrete check of hits ------------------------------------------

    def lookup(self, expr: hir.HExpr, isa: str):
        """A hit is re-checked concretely before it reaches codegen.

        Persisted entries can rot in ways deserialization cannot see: a
        bit-flipped immediate, a program saved against different
        semantics, a hand-edited file.  ``check_stored_program`` runs
        the structural check and :data:`LOOKUP_CHECK_TRIALS` concrete
        trials, on inputs seeded from the entry's key so one entry
        always sees the same inputs.  A failing entry (a crash included)
        is evicted from memory and disk, and the hit becomes a miss: the
        window re-synthesizes instead of silently compiling wrong code.
        """
        key = canonical_key(expr, isa)
        self._read_key(key)
        entry = self._lookup_key(key, expr)
        if entry is None:
            return None
        digest = _key_hash(key)
        self.screened += 1
        problem = check_stored_program(
            entry.program, expr, random.Random(digest), LOOKUP_CHECK_TRIALS
        )
        if problem is None:
            return entry
        self.screen_failures += 1
        faults.recovered()
        # Undo the hit this lookup just recorded: the caller sees a miss
        # and the window re-synthesizes (overwriting the bad entry).
        self.hits -= 1
        self.misses += 1
        self._entries.pop(key, None)
        name = f"e-{digest}.json"
        # Unread again: a re-synthesis by another process may land here.
        self._read.discard(name)
        try:
            (self.dir / name).unlink()
        except OSError:
            pass
        return None

    def counters(self) -> dict[str, int]:
        out = super().counters()
        out["writes"] = self.writes
        out["screened"] = self.screened
        out["screen_failures"] = self.screen_failures
        return out

    # -- write-through overrides ---------------------------------------

    def store(
        self, expr: hir.HExpr, isa: str, program, cost: float
    ) -> None:
        key = canonical_key(expr, isa)
        self._store_key(key, expr, program, cost)
        entry = self._entries[key]
        digest = _key_hash(key)
        self._write_entry(f"e-{digest}.json", entry_to_json(key, entry))
        # A success supersedes any persisted failure for the window
        # (typically one recorded under a smaller retry budget); it is
        # never read back.
        self._read.add(f"f-{digest}.json")
        try:
            (self.dir / f"f-{digest}.json").unlink()
        except OSError:
            pass

    def store_failure(self, expr: hir.HExpr, isa: str) -> None:
        key = canonical_key(expr, isa)
        self._store_failure_key(key)
        self._write_entry(
            f"f-{_key_hash(key)}.json",
            json.dumps(
                # The recorded budget (the in-memory merge keeps the
                # widest one); null = unconditional, always replayed.
                {"key": key, "budget": self._failure_budgets.get(key)},
                sort_keys=True,
            ),
        )

    def put_entry(self, key: str, entry: CacheEntry) -> None:
        """Adopt an already-canonicalized entry (service internal use)."""
        self._entries[key] = entry
        self._write_entry(f"e-{_key_hash(key)}.json", entry_to_json(key, entry))


# ----------------------------------------------------------------------
# Cache packs: portable snapshots for fleet warm-up
# ----------------------------------------------------------------------

# Version 2 added the optional per-namespace "rules" payload (the
# distilled rulebook riding along with the entries it was distilled
# from).  Version-1 packs remain importable; they simply carry no rules.
PACK_VERSION = 2
_SUPPORTED_PACK_VERSIONS = (1, 2)

# The distilled rulebook persisted inside each fingerprint namespace
# (kept in sync with repro.synthesis.rules.RULES_FILENAME; a literal here
# avoids importing the synthesis stack just to name a file).
RULEBOOK_FILENAME = "rules.json"


class PackError(ValueError):
    """A cache pack file is structurally unusable."""


def export_pack(root: str | Path, output: str | Path) -> dict:
    """Snapshot every entry under a cache root into one portable file.

    The pack is a single JSON document carrying each namespace's
    ``meta.json`` plus the raw (already-validated-on-write) entry
    objects, so a fleet can warm a fresh machine with one file copy
    instead of rsyncing thousands of small files — the Table 4 warm
    methodology applied across machines.  ``.tmp-*`` litter is never
    packed.  Returns a summary dict (namespaces/entries/failures/bytes).
    """
    root = Path(root)
    namespaces = []
    entries = failures = rulebooks = 0
    if root.is_dir():
        for isa_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for fp_dir in sorted(p for p in isa_dir.iterdir() if p.is_dir()):
                files: dict[str, dict] = {}
                meta = None
                rules = None
                for path in sorted(fp_dir.glob("*.json")):
                    if path.name.startswith(".tmp-"):
                        continue
                    try:
                        obj = json.loads(path.read_text())
                    except (json.JSONDecodeError, OSError):
                        continue  # corrupt entries re-synthesize; don't ship
                    if path.name == "meta.json":
                        meta = obj
                    elif path.name == RULEBOOK_FILENAME:
                        rules = obj
                    elif path.name.startswith(("e-", "f-")):
                        files[path.name] = obj
                        if path.name.startswith("e-"):
                            entries += 1
                        else:
                            failures += 1
                if files or rules is not None:
                    namespace = {
                        "isa": isa_dir.name,
                        "dir": fp_dir.name,
                        "meta": meta,
                        "files": files,
                    }
                    if rules is not None:
                        namespace["rules"] = rules
                        rulebooks += 1
                    namespaces.append(namespace)
    pack = {"version": PACK_VERSION, "namespaces": namespaces}
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(pack, sort_keys=True)
    atomic_write(output, text)
    return {
        "namespaces": len(namespaces),
        "entries": entries,
        "failures": failures,
        "rulebooks": rulebooks,
        "bytes": len(text),
    }


def _pack_namespaces(pack: dict, source) -> list[tuple[Path, dict, dict]]:
    """Validate every namespace of a pack before anything is written.

    A namespace lands at ``<root>/<isa>/<dir>``, so ``isa`` must be a
    registered ISA and ``dir`` exactly :data:`FINGERPRINT_DIR_CHARS`
    lowercase hex characters; anything else (``..``, an absolute path, a
    separator) could write outside the cache root.  Returns
    ``(relative target, namespace, files)`` triples.
    """
    valid = []
    for namespace in pack["namespaces"]:
        try:
            isa, directory = namespace["isa"], namespace["dir"]
            files = dict(namespace["files"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PackError(f"malformed namespace in {source}: {exc}") from exc
        if isa not in supported_isas():
            raise PackError(f"{source}: namespace isa {isa!r} is not registered")
        if not (
            isinstance(directory, str)
            and len(directory) == FINGERPRINT_DIR_CHARS
            and all(c in "0123456789abcdef" for c in directory)
        ):
            raise PackError(
                f"{source}: namespace dir {directory!r} is not "
                f"{FINGERPRINT_DIR_CHARS} lowercase hex characters"
            )
        valid.append((Path(isa) / directory, namespace, files))
    return valid


def import_pack(root: str | Path, source: str | Path) -> dict:
    """Merge a pack into a cache root (atomic, idempotent writes).

    Files already present keep their local content (the pack never
    clobbers fresher local entries); new files land via the same
    crash-consistent write path the cache itself uses.  Fingerprint
    namespacing is preserved verbatim: a pack made against a stale
    dictionary merges into a stale namespace that a later ``gc`` sweeps,
    so importing can never replay entries against the wrong semantics.
    The whole pack is validated first: a malformed one raises
    :class:`PackError` and writes nothing.
    """
    root = Path(root)
    try:
        pack = json.loads(Path(source).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PackError(f"unreadable pack {source}: {exc}") from exc
    if not isinstance(pack, dict) or "namespaces" not in pack:
        raise PackError(f"{source} is not a cache pack")
    if pack.get("version") not in _SUPPORTED_PACK_VERSIONS:
        raise PackError(
            f"pack version {pack.get('version')!r} unsupported "
            f"(want one of {_SUPPORTED_PACK_VERSIONS})"
        )
    imported = skipped = rulebooks = 0
    for relative, namespace, files in _pack_namespaces(pack, source):
        target = root / relative
        target.mkdir(parents=True, exist_ok=True)
        meta = namespace.get("meta")
        if meta is not None and not (target / "meta.json").exists():
            atomic_write(target / "meta.json", json.dumps(meta, sort_keys=True))
        for name, obj in sorted(files.items()):
            name = os.path.basename(str(name))
            if not name.startswith(("e-", "f-")) or not name.endswith(".json"):
                continue  # never let a pack write outside the entry schema
            path = target / name
            if path.exists():
                skipped += 1
                continue
            atomic_write(path, json.dumps(obj, sort_keys=True))
            imported += 1
        # v2 packs may carry the namespace's distilled rulebook; a local
        # book (possibly distilled from fresher entries) always wins.
        rules = namespace.get("rules")
        if isinstance(rules, dict):
            rules_path = target / RULEBOOK_FILENAME
            if rules_path.exists():
                skipped += 1
            else:
                atomic_write(rules_path, json.dumps(rules, sort_keys=True))
                rulebooks += 1
    return {"imported": imported, "skipped": skipped, "rulebooks": rulebooks}


# ----------------------------------------------------------------------
# Store-level maintenance (CLI `stats` / `gc`)
# ----------------------------------------------------------------------


def store_stats(root: str | Path) -> dict:
    """Inventory of a cache root: namespaces, entry counts, disk bytes.

    ``.tmp-*`` litter is reported separately and excluded from the byte
    and entry totals; files vanishing mid-scan (concurrent gc or
    overwrites) are tolerated.
    """
    root = Path(root)
    namespaces = []
    total_entries = total_failures = total_bytes = total_tmp = 0
    total_rules = 0
    if root.is_dir():
        for isa_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for fp_dir in sorted(p for p in isa_dir.iterdir() if p.is_dir()):
                entries = len(list(fp_dir.glob("e-*.json")))
                failures = len(list(fp_dir.glob("f-*.json")))
                size = 0
                tmp_litter = 0
                for path in fp_dir.glob("*.json"):
                    if path.name.startswith(".tmp-"):
                        tmp_litter += 1
                        continue
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue
                fingerprint = fp_dir.name
                meta = fp_dir / "meta.json"
                try:
                    fingerprint = json.loads(meta.read_text())["fingerprint"]
                except (json.JSONDecodeError, KeyError, OSError):
                    pass
                rules = 0
                try:
                    book = json.loads(
                        (fp_dir / RULEBOOK_FILENAME).read_text()
                    )
                    rules = len(book.get("rules", []))
                except (json.JSONDecodeError, AttributeError, OSError):
                    pass
                namespaces.append(
                    {
                        "isa": isa_dir.name,
                        "fingerprint": fingerprint,
                        "entries": entries,
                        "failures": failures,
                        "rules": rules,
                        "bytes": size,
                        "tmp_litter": tmp_litter,
                    }
                )
                total_entries += entries
                total_failures += failures
                total_rules += rules
                total_bytes += size
                total_tmp += tmp_litter
    return {
        "root": str(root),
        "namespaces": namespaces,
        "total_entries": total_entries,
        "total_failures": total_failures,
        "total_rules": total_rules,
        "total_bytes": total_bytes,
        "total_tmp_litter": total_tmp,
        "last_run": read_run_telemetry(root),
    }


def _remove_flat_dir(directory: Path) -> tuple[int, bool]:
    """Unlink every file in ``directory``, then the directory itself.

    Returns the files removed and whether the directory went too; a file
    unlinked under us is skipped, and a directory that grew a new file
    meanwhile is left in place."""
    removed = 0
    for path in directory.glob("*"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    try:
        directory.rmdir()
    except OSError:
        return removed, False
    return removed, True


def gc_store(root: str | Path, keep_fingerprint: str) -> dict:
    """Remove every namespace whose fingerprint differs from the current one.

    Returns counts of removed namespaces and files.  The dead
    ``<root>/reuse/`` directory goes too, files and ``.tmp-*`` litter
    included (its files count as removed files).  The live namespace
    (current fingerprint, any ISA) is left untouched — except for an
    orphaned or stale rulebook inside it: a ``rules.json`` that fails to
    parse or whose recorded fingerprint disagrees with the namespace it
    sits in is litter (e.g. copied in by hand, or left by a crashed
    distill against an older dictionary) that the loader would refuse
    anyway, so gc reaps it like ``.tmp-*`` files.  Concurrent writers
    are tolerated: a file unlinked under us is skipped, and a namespace
    that grew a new file between the sweep and the ``rmdir`` is simply
    left for the next gc instead of crashing this one.
    """
    root = Path(root)
    removed_dirs = 0
    removed_files = 0
    removed_rulebooks = 0
    keep = keep_fingerprint[:FINGERPRINT_DIR_CHARS]
    if root.is_dir():
        if (root / _DEAD_REUSE_DIR).is_dir():
            removed_files += _remove_flat_dir(root / _DEAD_REUSE_DIR)[0]
        for isa_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for fp_dir in sorted(p for p in isa_dir.iterdir() if p.is_dir()):
                if fp_dir.name == keep:
                    if _reap_stale_rulebook(fp_dir, keep_fingerprint):
                        removed_rulebooks += 1
                    continue
                files, gone = _remove_flat_dir(fp_dir)
                removed_files += files
                removed_dirs += gone
            try:
                if not any(isa_dir.iterdir()):
                    isa_dir.rmdir()
            except OSError:
                pass
    return {
        "removed_namespaces": removed_dirs,
        "removed_files": removed_files,
        "removed_rulebooks": removed_rulebooks,
    }


def _reap_stale_rulebook(fp_dir: Path, keep_fingerprint: str) -> bool:
    """Unlink a kept namespace's rulebook when it is corrupt or carries
    the wrong fingerprint; returns True if a file was removed."""
    path = fp_dir / RULEBOOK_FILENAME
    if not path.exists():
        return False
    stale = False
    try:
        recorded = json.loads(path.read_text()).get("fingerprint", "")
        stale = recorded != keep_fingerprint
    except (json.JSONDecodeError, AttributeError, OSError):
        stale = True
    if not stale:
        return False
    try:
        path.unlink()
    except OSError:
        return False
    return True


def record_run_telemetry(root: str | Path, data: dict) -> None:
    """Persist the aggregate telemetry of a service run (CLI `stats`).

    Best-effort: telemetry is a convenience, so an I/O error here (disk
    full, injected crash) is absorbed rather than failing a run whose
    results are already complete.
    """
    root = Path(root)
    data = dict(data)
    data["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        root.mkdir(parents=True, exist_ok=True)
        atomic_write(
            root / STATS_FILE, json.dumps(data, sort_keys=True, indent=2)
        )
    except OSError:
        faults.recovered()


def read_run_telemetry(root: str | Path) -> dict | None:
    path = Path(root) / STATS_FILE
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None
