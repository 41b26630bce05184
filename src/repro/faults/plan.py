"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec`\\ s, each
keyed by an injection *site* (a dotted string naming one hook in the
service, store, or irgen layers — see :data:`SITES`).  Every hook call
reports its site plus a free-form ``detail`` string (a file name, a
benchmark name, an attempt index); a spec *fires* on the ``at``-th
matching call (1-based) and keeps firing for ``count`` consecutive
matching calls (``count=0`` means "from ``at`` on, forever").

Plans are value objects: they serialize to/from JSON (so a parent can
hand a plan to subprocesses through the ``REPRO_FAULTS`` environment
variable) and :func:`random_plan` derives a randomized-but-reproducible
schedule from a seed — the same seed always yields the same specs, which
is what makes a chaos soak a regression test instead of a dice roll.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

# Site -> kinds that make sense there.  The catalog is documentation and
# the sample space for random_plan(); check()/trip() accept any site so
# new hooks don't need a registry edit to work.
SITES: dict[str, tuple[str, ...]] = {
    # atomic_write payload/timing faults: the written JSON is corrupted,
    # truncated, or zeroed before it lands; "leak_tmp" drops a stray
    # .tmp-*.json next to the target; "slow" sleeps before the write.
    "store.atomic_write": ("corrupt", "truncate", "zero", "leak_tmp", "slow"),
    # Fired between writing the temp file and os.replace: "exit" models
    # SIGKILL mid-write (temp file leaks, entry never lands), "raise"
    # models the same crash surfacing as an exception in-process.
    "store.atomic_write.crash": ("exit", "raise"),
    # Per-entry-file faults while (re)loading a persistent cache.
    "store.load": ("slow", "raise"),
    # Worker lifecycle: "exit" crashes the worker before any work,
    # "hang" wedges it with its pipe still open (kill-backstop food),
    # "slow"/"raise" delay or error the worker.
    "scheduler.worker.start": ("exit", "hang", "slow", "raise"),
    # The worker closes its pipe and then hangs: the parent sees EOF on
    # a connection whose process is still alive (the PR-2 deadlock).
    "scheduler.worker.mute": ("hang",),
    # Crash after computing the result but before sending it.
    "scheduler.worker.send": ("exit",),
    # After the result is sent and the pipe closed: the worker lingers
    # ("slow") or never exits ("hang") while the parent has answered.
    "scheduler.worker.exit": ("slow", "hang"),
    # Parent-side receive failure (torn pickle, closed pipe).
    "scheduler.recv": ("eof",),
    # Per-attempt faults inside execute_job's retry ladder: "timeout"
    # raises JobTimeout (walks the ladder at a halved budget), "raise"
    # errors the attempt deterministically (goes straight to fallback).
    "jobs.attempt": ("timeout", "raise", "slow"),
    # Artifact store I/O.
    "irgen.load": ("raise", "slow"),
    "irgen.save": ("raise", "slow"),
    "irgen.build": ("slow", "raise"),
    # Daemon front-end (repro.daemon): "eof" drops the client connection
    # right before the response frame is written (the client sees a
    # half-closed stream, never a hang); "slow" delays the write.
    "daemon.conn.drop": ("eof", "slow"),
    # Fired between accepting a submit frame and enqueuing the job:
    # "raise" surfaces as a typed internal-error response, "exit" models
    # the daemon crashing in the accept→enqueue window (clients must see
    # a closed connection, and a restarted daemon must warm from cache).
    "daemon.enqueue": ("raise", "exit"),
}


@dataclass
class FaultSpec:
    """One scheduled fault at one site."""

    site: str
    kind: str
    at: int = 1        # fire on the Nth matching call (1-based)
    count: int = 1     # consecutive firings; 0 = every call from `at` on
    match: str = ""    # substring filter on the hook's detail string
    delay: float = 0.0  # seconds for slow/hang kinds (0 = kind default)

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "FaultSpec":
        try:
            return cls(
                site=str(obj["site"]),
                kind=str(obj["kind"]),
                at=int(obj.get("at", 1)),
                count=int(obj.get("count", 1)),
                match=str(obj.get("match", "")),
                delay=float(obj.get("delay", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad fault spec {obj!r}: {exc}") from exc


class FaultPlan:
    """An ordered fault schedule plus its firing state.

    ``fired`` records every ``(site, kind, detail)`` that actually
    triggered in *this process* — forked workers carry their own copy of
    the counters, so their firings surface through the
    ``faults_injected`` perf counter in job telemetry instead.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int | None = None):
        self.specs: list[FaultSpec] = list(specs or [])
        self.seed = seed
        self._hits: dict[int, int] = {}  # spec index -> matching calls seen
        self.fired: list[tuple[str, str, str]] = []

    # -- matching ------------------------------------------------------

    def fire(self, site: str, detail: str = "") -> FaultSpec | None:
        """The first spec firing at this call of ``site``, if any."""
        winner: FaultSpec | None = None
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.match and spec.match not in detail:
                continue
            hits = self._hits.get(index, 0) + 1
            self._hits[index] = hits
            if hits < spec.at:
                continue
            if spec.count and hits >= spec.at + spec.count:
                continue
            if winner is None:
                winner = spec
        if winner is not None:
            self.fired.append((site, winner.kind, detail))
        return winner

    def reset(self) -> None:
        self._hits.clear()
        self.fired.clear()

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [s.to_obj() for s in self.specs]},
            sort_keys=True,
        )

    @classmethod
    def from_obj(cls, obj) -> "FaultPlan":
        if isinstance(obj, list):
            return cls([FaultSpec.from_obj(s) for s in obj])
        if isinstance(obj, dict):
            seed = obj.get("seed")
            return cls(
                [FaultSpec.from_obj(s) for s in obj.get("specs", [])],
                seed=int(seed) if seed is not None else None,
            )
        raise ValueError(f"bad fault plan payload: {type(obj).__name__}")

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_obj(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad fault plan JSON: {exc}") from exc


# Kinds random_plan() never draws: open-ended hangs and hard process
# exits at sites where the soak's wall guard, not the scheduler, would
# have to clean up are still selectable explicitly.
_RANDOM_KINDS: dict[str, tuple[str, ...]] = {
    "store.atomic_write": ("corrupt", "truncate", "zero", "leak_tmp", "slow"),
    "store.atomic_write.crash": ("raise",),
    "store.load": ("slow",),
    "scheduler.worker.start": ("exit", "hang", "slow"),
    "scheduler.worker.mute": ("hang",),
    "scheduler.worker.send": ("exit",),
    "scheduler.recv": ("eof",),
    "jobs.attempt": ("timeout", "raise", "slow"),
    # Daemon sites: never draw "exit" randomly — a chaos round asserts
    # every client gets an answer, which a daemon suicide would void.
    "daemon.conn.drop": ("eof", "slow"),
    "daemon.enqueue": ("raise",),
}


@dataclass
class RandomPlanOptions:
    """Knobs for :func:`random_plan` (kept small and explicit so a soak
    run's schedule is fully determined by ``(seed, options)``)."""

    min_faults: int = 1
    max_faults: int = 3
    hang_seconds: float = 20.0  # finite: the kill backstop must beat it
    slow_seconds: float = 0.05
    sites: tuple[str, ...] = field(
        default_factory=lambda: tuple(sorted(_RANDOM_KINDS))
    )


def random_plan(seed: int, options: RandomPlanOptions | None = None) -> FaultPlan:
    """A reproducible randomized schedule: same seed, same plan."""
    options = options or RandomPlanOptions()
    rng = random.Random(seed)
    specs: list[FaultSpec] = []
    for _ in range(rng.randint(options.min_faults, options.max_faults)):
        site = rng.choice(list(options.sites))
        kind = rng.choice(list(_RANDOM_KINDS.get(site, SITES.get(site, ("raise",)))))
        delay = 0.0
        if kind == "hang":
            delay = options.hang_seconds
        elif kind == "slow":
            delay = options.slow_seconds
        # Worker-lifecycle sites are hit exactly once per forked worker,
        # so only at=1 can ever fire there; I/O sites see many calls.
        at = 1 if site.startswith("scheduler.worker") else rng.randint(1, 3)
        specs.append(FaultSpec(site=site, kind=kind, at=at, delay=delay))
    return FaultPlan(specs, seed=seed)
