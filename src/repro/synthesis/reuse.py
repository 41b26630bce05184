"""Cross-window reuse of counterexample suites and learned clauses.

Hot instruction families present CEGIS with the same specification over
and over (structurally identical windows from different benchmarks, or
the same window re-synthesized because the result cache is cold or
namespaced elsewhere).  The positive cache already short-circuits exact
repeats *with* a stored program; this store amortizes the work of runs
that must re-synthesize anyway:

* **counterexample suites** — every refuting input discovered for a spec
  (fuzz refutations and SMT models) is recorded under the spec's
  :func:`~repro.synthesis.cache.canonical_key` and preloaded into the
  next run's environment suite, skipping the iterations that would
  rediscover it.  Environments are just concrete inputs, so preloading
  is always sound; it does change the search trajectory.
* **learned clauses** — spec-cone clauses exported from a primed
  incremental SAT context (see
  :meth:`repro.smt.solver.IncrementalSatContext.export_learned`) are
  replayed into the next same-spec context.  Clauses are stored with the
  cone boundary they were exported under and dropped on mismatch.  That
  rule only sees drift that moves the boundary; a blaster change that
  keeps the boundary but changes what a variable means must bump
  ``REUSE_VERSION``.

Entries are keyed by the *scaled* spec (the circuit CEGIS actually
races) and canonicalised in load naming, so windows that differ only in
input names share one entry; environments are stored under the
positional placeholder names and remapped on load.

Persistence is best-effort: one JSON file per spec under a directory
that lives alongside the persistent synthesis cache, written through
:func:`repro.service.store.atomic_write` (durable, inside the fault
plane, ``.tmp-*`` litter the store's reaper knows).  A failed write is
absorbed and torn or corrupt files are ignored (the store is an
accelerator, never a source of truth).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.bitvector.bv import BitVector
from repro.halide import ir as hir
from repro.perf import global_counters
from repro.synthesis.cache import _appearance_order, canonical_key

# Bump when the on-disk entry encoding changes shape, or when the
# bit-blaster changes what its variables mean.  The cone-size check only
# catches layout drift that moves the cone boundary: version 1 suites
# predate structural gate hashing, which keeps the variable count of
# e.g. a ripple adder but flips the polarity some of them are defined
# with, so their clauses would be wrong, not merely stale.
REUSE_VERSION = 2


@dataclass
class ReuseEntry:
    """Everything remembered about one spec fingerprint."""

    # Counterexample suite: canonical input name -> integer value.
    envs: list[dict[str, int]] = field(default_factory=list)
    widths: dict[str, int] = field(default_factory=dict)
    # Spec-cone learned clauses and the cone boundary they are valid for.
    cone_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "version": REUSE_VERSION,
            "envs": self.envs,
            "widths": self.widths,
            "cone_vars": self.cone_vars,
            "clauses": [list(c) for c in self.clauses],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ReuseEntry":
        if obj.get("version") != REUSE_VERSION:
            raise ValueError("reuse entry version mismatch")
        return cls(
            envs=[{str(k): int(v) for k, v in env.items()} for env in obj["envs"]],
            widths={str(k): int(v) for k, v in obj["widths"].items()},
            cone_vars=int(obj.get("cone_vars", 0)),
            clauses=[tuple(int(l) for l in c) for c in obj.get("clauses", ())],
        )


class ReuseStore:
    """In-memory reuse table with optional on-disk persistence.

    Worker processes forked from a warm parent see the parent's
    in-memory entries for free; their own discoveries travel back as
    :meth:`payload` dicts merged with :meth:`merge`.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        max_envs: int = 8,
        max_clauses: int = 256,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.max_envs = max_envs
        self.max_clauses = max_clauses
        self._entries: dict[str, ReuseEntry] = {}
        # Keys whose on-disk file is known absent/unreadable (negative
        # lookup cache) and keys with unflushed in-memory changes.
        self._missing: set[str] = set()
        self._dirty: set[str] = set()

    # -- keying ---------------------------------------------------------

    @staticmethod
    def key_for(spec: hir.HExpr, isa: str) -> str:
        return canonical_key(spec, isa)

    def _path_for(self, key: str) -> Path | None:
        if self.root is None:
            return None
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.root / f"r-{digest}.json"

    def _load(self, key: str) -> ReuseEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        if key in self._missing:
            return None
        path = self._path_for(key)
        if path is None:
            self._missing.add(key)
            return None
        try:
            obj = json.loads(path.read_text())
            if obj.get("key") != key:
                raise ValueError("fingerprint collision")
            entry = ReuseEntry.from_obj(obj)
        except (OSError, ValueError, KeyError, TypeError):
            self._missing.add(key)
            return None
        self._entries[key] = entry
        return entry

    def _entry(self, key: str) -> ReuseEntry:
        entry = self._load(key)
        if entry is None:
            entry = ReuseEntry()
            self._entries[key] = entry
            self._missing.discard(key)
        return entry

    # -- counterexample suites ------------------------------------------

    def lookup_envs(self, spec: hir.HExpr, isa: str) -> list[dict[str, BitVector]]:
        """Stored refuting inputs for ``spec``, renamed to its loads."""
        perf = global_counters()
        entry = self._load(self.key_for(spec, isa))
        if entry is None or not entry.envs:
            perf.reuse_cex_misses += 1
            return []
        perf.reuse_cex_hits += 1
        order = _appearance_order(spec)
        mapping = {f"in{i}": name for i, name in enumerate(order)}
        loads = {name: load.bits for name, load in spec.loads().items()}
        out: list[dict[str, BitVector]] = []
        for env in entry.envs:
            rebuilt: dict[str, BitVector] = {}
            ok = True
            for canon, value in env.items():
                name = mapping.get(canon)
                width = entry.widths.get(canon, 0)
                if name is None or loads.get(name) != width:
                    ok = False
                    break
                rebuilt[name] = BitVector(value, width)
            if ok and set(rebuilt) == set(loads):
                out.append(rebuilt)
        perf.reuse_cex_preloaded += len(out)
        return out

    def record_env(
        self, spec: hir.HExpr, isa: str, env: dict[str, BitVector]
    ) -> None:
        """Remember one refuting input (canonicalised load names)."""
        key = self.key_for(spec, isa)
        entry = self._entry(key)
        if len(entry.envs) >= self.max_envs:
            return
        order = _appearance_order(spec)
        mapping = {name: f"in{i}" for i, name in enumerate(order)}
        canon_env: dict[str, int] = {}
        for name, value in env.items():
            canon = mapping.get(name)
            if canon is None:
                return  # an input outside the spec's loads: skip
            canon_env[canon] = value.value
            entry.widths[canon] = value.width
        if canon_env in entry.envs:
            return
        entry.envs.append(canon_env)
        self._dirty.add(key)

    # -- learned clauses ------------------------------------------------

    def lookup_clauses(
        self, spec: hir.HExpr, isa: str
    ) -> tuple[int, list[tuple[int, ...]]]:
        """Stored ``(cone_vars, clauses)`` for ``spec`` (0, [] on miss)."""
        perf = global_counters()
        entry = self._load(self.key_for(spec, isa))
        if entry is None or not entry.clauses:
            perf.reuse_clause_misses += 1
            return 0, []
        perf.reuse_clause_hits += 1
        perf.reuse_clauses_preloaded += len(entry.clauses)
        return entry.cone_vars, list(entry.clauses)

    def record_clauses(
        self,
        spec: hir.HExpr,
        isa: str,
        cone_vars: int,
        clauses: list[tuple[int, ...]],
    ) -> None:
        if not clauses or cone_vars <= 0:
            return
        key = self.key_for(spec, isa)
        entry = self._entry(key)
        if entry.cone_vars not in (0, cone_vars):
            # Blaster-layout drift: the stored suite was exported under a
            # different cone — invalidate rather than mix.
            entry.clauses = []
        entry.cone_vars = cone_vars
        known = set(entry.clauses)
        for clause in clauses:
            if len(entry.clauses) >= self.max_clauses:
                break
            if clause not in known:
                entry.clauses.append(tuple(clause))
                known.add(tuple(clause))
        self._dirty.add(key)

    # -- cross-process merge / persistence ------------------------------

    def payload(self) -> dict:
        """JSON-able dict of entries modified in this process."""
        return {
            key: self._entries[key].to_obj()
            for key in self._dirty
            if key in self._entries
        }

    def merge(self, payload: dict) -> None:
        """Fold a child process's :meth:`payload` into this store."""
        for key, obj in payload.items():
            try:
                incoming = ReuseEntry.from_obj(obj)
            except (ValueError, KeyError, TypeError):
                continue
            entry = self._entry(key)
            entry.widths.update(incoming.widths)
            for env in incoming.envs:
                if env not in entry.envs and len(entry.envs) < self.max_envs:
                    entry.envs.append(env)
            if incoming.clauses:
                if entry.cone_vars not in (0, incoming.cone_vars):
                    entry.clauses = []
                entry.cone_vars = incoming.cone_vars
                known = set(entry.clauses)
                for clause in incoming.clauses:
                    if len(entry.clauses) >= self.max_clauses:
                        break
                    if clause not in known:
                        entry.clauses.append(clause)
                        known.add(clause)
            self._dirty.add(key)

    def flush(self) -> None:
        """Persist dirty entries (no-op for memory-only stores).

        An entry whose write fails (I/O error, injected fault) stays
        dirty; the failure never reaches the compile."""
        from repro.service.store import atomic_write

        if self.root is None:
            self._dirty.clear()
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        for key in list(self._dirty):
            entry = self._entries.get(key)
            path = self._path_for(key)
            if entry is None or path is None:
                continue
            obj = entry.to_obj()
            obj["key"] = key
            try:
                atomic_write(path, json.dumps(obj, sort_keys=True))
            except OSError:
                faults.recovered()
                continue
            self._dirty.discard(key)

    def counters(self) -> dict[str, int]:
        return {
            "specs": len(self._entries),
            "envs": sum(len(e.envs) for e in self._entries.values()),
            "clauses": sum(len(e.clauses) for e in self._entries.values()),
        }
