"""Parallel, cache-aware job scheduling.

:class:`WorkerPool` is the one job queue of both front-ends, the batch
:class:`Scheduler` and the daemon (:mod:`repro.daemon`).  It forks one
process per job (up to ``jobs`` alive at once, forked so the parent's
already-built AutoLLVM dictionary is inherited for free) and
de-duplicates in-flight synthesis work:

* Each hydride job's top-level window keys (``canonical_key`` of every
  lowered kernel window) are computed **in the parent** when it is
  submitted.
* A job sharing any window key with a currently-running job is deferred
  until that job completes — by then the owner has written the entry to
  the persistent store, so the deferred job replays it from disk instead
  of synthesizing the identical window a second time.

With ``jobs <= 1`` (the default) the batch scheduler runs everything
serially in-process — no fork, no pickling — which is the path tier-1
tests and single-kernel uses take.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import multiprocessing.connection
import os
import time
from collections.abc import Hashable
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.perf import global_counters
from repro.perf import snapshot as perf_snapshot
from repro.synthesis import CegisOptions
from repro.service.jobs import (
    CompileJob,
    JobResult,
    execute_job,
    fallback_job_result,
)
from repro.service.telemetry import fold_outcome

# Grace factor on a job's wall budget before the parent hard-kills the
# worker (the in-worker deadline normally fires first; the kill is the
# backstop for a genuinely wedged process).
KILL_GRACE = 1.5
# Kill backstop for jobs with no wall budget of their own: every worker
# must have a *finite* kill limit, or a mute-but-alive worker wedges the
# whole run (the pre-faults scheduler returned None here and never
# killed such workers).
DEFAULT_KILL_SECONDS = 600.0
# How long a worker that has reported (or been terminated) may take to
# exit before the pool kills it.
_JOIN_GRACE_SECONDS = 5.0


def default_cegis_options() -> CegisOptions:
    """The synthesis budget of the service, the daemon and the experiment
    suite."""
    return CegisOptions(timeout_seconds=25.0, scale_factor=8)


@dataclass
class ServiceOptions:
    jobs: int = 1
    cache_dir: str | None = None
    cegis: CegisOptions = field(default_factory=default_cegis_options)
    # Kill backstop for workers whose job has no wall budget
    # (timeout_seconds=None); must be finite.
    kill_seconds: float = DEFAULT_KILL_SECONDS


@dataclass
class ServiceStats:
    """Aggregate telemetry for one scheduler run."""

    jobs: int = 0
    ok: int = 0
    cache_hits: int = 0
    failure_hits: int = 0
    synth_calls: int = 0
    # Cache misses served solver-free by the distilled rulebook.
    rule_hits: int = 0
    entries_added: int = 0
    # Persistent-cache hits checked concretely before codegen, and hits
    # evicted because the stored program failed that check.
    cache_screened: int = 0
    cache_screen_failures: int = 0
    fallbacks: int = 0
    deferred: int = 0
    killed: int = 0
    # Workers whose pipe hit EOF before a result arrived (crashed
    # mid-send, or closed the pipe and hung) — recovered via fallback.
    worker_eofs: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    workers: int = 1
    # Summed synthesis hot-path counters across all jobs in the run
    # (each job's :attr:`JobTelemetry.perf` snapshot delta).
    perf: dict = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return (
            self.cache_hits + self.failure_hits + self.synth_calls
            + self.rule_hits
        )

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return (self.cache_hits + self.failure_hits) / self.lookups

    @property
    def utilization(self) -> float:
        capacity = self.wall_seconds * max(1, self.workers)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    def perf_metrics(self) -> dict:
        """Derived hot-path rates for the whole run (blast-cache hit
        rate, candidates/sec, learned clauses retained)."""
        from repro.perf import derived_metrics

        return derived_metrics(self.perf) if self.perf else {}

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "ok": self.ok,
            "cache_hits": self.cache_hits,
            "failure_hits": self.failure_hits,
            "synth_calls": self.synth_calls,
            "rule_hits": self.rule_hits,
            "entries_added": self.entries_added,
            "cache_screened": self.cache_screened,
            "cache_screen_failures": self.cache_screen_failures,
            "fallbacks": self.fallbacks,
            "deferred": self.deferred,
            "killed": self.killed,
            "worker_eofs": self.worker_eofs,
            "wall_seconds": round(self.wall_seconds, 3),
            "hit_rate": round(self.hit_rate, 4),
            "utilization": round(self.utilization, 4),
            "workers": self.workers,
            "perf": {k: round(v, 4) for k, v in sorted(self.perf.items())},
            "perf_metrics": {
                k: round(v, 4) for k, v in sorted(self.perf_metrics().items())
            },
        }


def window_keys(job: CompileJob) -> frozenset[str]:
    """Canonical keys of a job's top-level synthesis windows.

    Computed in the parent for in-flight de-duplication, and memoised
    per job signature (they depend on nothing else), so a repeated job
    is lowered once.  Only hydride jobs synthesize; anything that fails
    to lower here returns no keys and the error surfaces in the worker
    instead.
    """
    return _window_keys(job.benchmark, job.isa, job.compiler)


@functools.lru_cache(maxsize=512)
def _window_keys(benchmark: str, isa: str, compiler: str) -> frozenset[str]:
    if compiler != "hydride":
        return frozenset()
    try:
        from repro.backend.hydride import rewrite_broadcasts
        from repro.synthesis.cache import canonical_key
        from repro.workloads.registry import benchmark_named

        return frozenset(
            canonical_key(rewrite_broadcasts(kernel.window), isa)
            for kernel in benchmark_named(benchmark).lower(isa)
        )
    except Exception:  # noqa: BLE001 - dedup is an optimization only
        return frozenset()


def prewarm(cache_dir: str | None) -> int:
    """Build, in the parent, every piece of process-wide state a worker
    reads — call once before the first fork.

    The warm-fork invariant: a worker forked by :class:`WorkerPool`
    inherits all of this and rebuilds none of it (``specs_parsed`` in its
    ``JobTelemetry.perf`` stays zero).  Loaded here: the workload
    registry, the one dictionary every job compiles against (over every
    registered ISA), its fingerprint (memoised on the dictionary object)
    and, for every ISA with presence in ``cache_dir``, that namespace's
    distilled rulebook (memoised by
    :func:`~repro.synthesis.rules.load_rulebook`).  Returns the number of
    non-empty rulebooks loaded.

    Ends by moving everything it built into the collector's permanent
    generation (CPython's pattern before ``fork()``): a worker's
    collections then never walk, or copy on write, the dictionary.
    """
    from repro.autollvm import build_dictionary
    from repro.isa.registry import supported_isas
    from repro.service.store import FINGERPRINT_DIR_CHARS
    from repro.synthesis.rules import load_rulebook
    from repro.synthesis.serialize import dictionary_fingerprint
    from repro.workloads.registry import all_benchmarks

    all_benchmarks()
    dictionary = build_dictionary()
    books = 0
    if cache_dir is not None:
        fingerprint = dictionary_fingerprint(dictionary)
        root = Path(cache_dir)
        for isa in supported_isas():
            if not (root / isa).is_dir():
                continue
            book = load_rulebook(
                root / isa / fingerprint[:FINGERPRINT_DIR_CHARS],
                dictionary,
                expect_fingerprint=fingerprint,
            )
            if book is not None and len(book):
                books += 1
    gc.collect()
    gc.freeze()
    return books


@dataclass
class PoolEvent:
    """One completed worker, as observed by :meth:`WorkerPool.poll`.

    ``kind`` records how the result was obtained: ``"result"`` (worker
    reported normally), ``"eof"`` (pipe closed without a payload),
    ``"died"`` (process exited without reporting), ``"killed"`` (parent
    enforced the wall backstop), or ``"corrupt"`` (worker sent something
    other than a JobResult).  Everything but ``"result"`` carries a
    parent-side baseline fallback result.
    """

    token: Hashable
    job: CompileJob
    outcome: JobResult
    kind: str = "result"


class WorkerPool:
    """The one job queue: a fork-per-job worker pool with no event loop
    of its own.

    Callers ``submit`` jobs; ``launch_ready`` forks a worker for each
    queued job, in submission order, that fits capacity and shares no
    window key with a running job (keys are held only with a
    ``cache_dir``: deferral pays off only when workers share a store).
    Each ``poll`` harvests whatever finished since the last call —
    receiving results, recovering EOF'd pipes and silent deaths via the
    baseline fallback, and hard-killing workers past their wall
    backstop — and folds every event it hands out into :attr:`stats`,
    the run's one :class:`ServiceStats`.  A result is handed out as soon
    as it is received: the worker gives up its slot and its window keys
    then, and its exit is joined on a later ``poll`` (killed if it
    lingers past ``_JOIN_GRACE_SECONDS``) or by ``shutdown``.  *When* to
    poll is the caller's business, and both callers are event-driven:
    the batch :class:`Scheduler` blocks in :meth:`wait`, while the
    daemon registers each launched worker's :meth:`pipe` with its
    asyncio loop and never blocks its connections.  Call
    :func:`prewarm` before the first launch: workers are forked, so
    whatever the parent has built they inherit.
    """

    def __init__(self, options: ServiceOptions) -> None:
        self.options = options
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # token -> (job, window keys), in submission order.
        self._queued: dict[Hashable, tuple] = {}
        # Queued tokens already counted in stats.deferred.
        self._deferred: set[Hashable] = set()
        # token -> (process, parent_conn, started_at, job, window keys)
        self._running: dict[Hashable, tuple] = {}
        # Every running job's window keys.  Disjoint per job: a job is
        # launched only when none of its keys is here.
        self._running_keys: set[str] = set()
        # Workers done with their job but not yet joined: (process, kill
        # deadline).  They hold no slot; poll() joins them without
        # blocking and kills any still alive past the deadline.
        self._exiting: list[tuple] = []
        # The run so far: every handed-out outcome, the pool's own kills
        # and EOFs, and the parent's perf counters since the pool began
        # (fallback compiles, recoveries; workers count their own).
        self.stats = ServiceStats(workers=self.capacity)
        self._perf_mark = perf_snapshot()

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return max(1, self.options.jobs)

    @property
    def active(self) -> int:
        return len(self._running)

    @property
    def queued(self) -> int:
        return len(self._queued)

    def has_capacity(self) -> bool:
        return self.active < self.capacity

    def submit(self, token: Hashable, job: CompileJob) -> None:
        """Queue ``job`` under ``token``, which names it to the caller
        until its event is handed out (then the token is free again)."""
        if token in self._queued or token in self._running:
            raise ValueError(f"token {token} already submitted")
        keys = (
            window_keys(job) if self.options.cache_dir is not None
            else frozenset()
        )
        self._queued[token] = (job, keys)

    def launch_ready(self) -> list[Hashable]:
        """Fork a worker for every queued job that fits capacity and
        shares no window key with a running job, in submission order;
        returns their tokens.  A job held back by a running job's keys
        is counted in ``stats.deferred`` once.  With nothing running,
        the head of the queue always launches."""
        launched = []
        for token, (job, keys) in list(self._queued.items()):
            if not self.has_capacity():
                break
            if keys & self._running_keys:
                # Once the owner publishes to the shared store this job
                # replays the window from disk instead of synthesizing it.
                if token not in self._deferred:
                    self._deferred.add(token)
                    self.stats.deferred += 1
                continue
            del self._queued[token]
            self._deferred.discard(token)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    child_conn, job, self.options.cache_dir,
                    self.options.cegis,
                ),
            )
            proc.start()
            child_conn.close()
            self._running[token] = (
                proc, parent_conn, time.monotonic(), job, keys
            )
            self._running_keys |= keys
            launched.append(token)
        return launched

    def pipe(self, token: Hashable):
        """The read end of a launched worker's result pipe.

        Readable when the worker has reported, closed its end, or died;
        :meth:`poll` closes it, so a caller that registered it with a
        selector must unregister in the same breath (see the daemon).
        """
        return self._running[token][1]

    def wait(self) -> None:
        """Block until some worker is ready for :meth:`poll`: a result or
        EOF on its pipe, its exit, or its kill backstop coming due."""
        now = time.monotonic()
        handles, timeout = [], None
        for proc, conn, started_at, job, _keys in self._running.values():
            handles += [conn, proc.sentinel]
            left = started_at + _kill_limit(job, self.options.kill_seconds) - now
            timeout = left if timeout is None else min(timeout, left)
        for proc, deadline in self._exiting:
            handles.append(proc.sentinel)
            left = deadline - now
            timeout = left if timeout is None else min(timeout, left)
        if handles:
            multiprocessing.connection.wait(handles, max(0.0, timeout))

    def _release(self, token: Hashable) -> None:
        """Free ``token``'s slot, window keys and pipe; its process is
        joined later, by :meth:`_join_exited`, so nobody waits for it to
        exit."""
        proc, conn, _started, _job, keys = self._running.pop(token)
        self._running_keys -= keys
        try:
            conn.close()
        except OSError:
            pass
        self._exiting.append((proc, time.monotonic() + _JOIN_GRACE_SECONDS))

    def _join_exited(self, block: bool = False) -> None:
        """Join every released worker that has exited; kill those past
        their grace.  With ``block``, wait out each grace first."""
        still = []
        for proc, deadline in self._exiting:
            if block:
                proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive() and time.monotonic() < deadline:
                still.append((proc, deadline))
                continue
            if proc.is_alive():
                proc.kill()
            proc.join()
        self._exiting = still

    def poll(self) -> list[PoolEvent]:
        """Harvest every worker that finished since the last poll.

        Non-blocking; returns in arbitrary completion order.  Workers
        that crashed, went mute, or overran their wall backstop come
        back as fallback results rather than exceptions — a pool user
        always gets exactly one event per launched token.  Launches
        nothing: a freed slot is filled by the next :meth:`launch_ready`.
        """
        self._join_exited()
        events: list[PoolEvent] = []
        for token in list(self._running):
            proc, conn, started_at, job, _keys = self._running[token]
            if conn.poll(0):
                try:
                    faults.trip("scheduler.recv", detail=job.benchmark)
                    outcome = conn.recv()
                except (EOFError, OSError) as exc:
                    # The pipe closed without a payload: the worker
                    # crashed mid-send, or closed its end and hung.
                    # poll(0) stays True forever after EOF, so the
                    # "died without reporting" guard below can never
                    # fire — mark the connection dead *now*, reap the
                    # process, and route the job to the fallback.
                    self.stats.worker_eofs += 1
                    global_counters().fault_recoveries += 1
                    if proc.is_alive():
                        proc.terminate()
                    self._release(token)
                    events.append(PoolEvent(
                        token, job,
                        fallback_job_result(
                            job,
                            self.options.cegis,
                            "worker pipe closed without a result "
                            f"({type(exc).__name__})",
                        ),
                        kind="eof",
                    ))
                    continue
                kind = "result"
                if not isinstance(outcome, JobResult):
                    # A worker must only ever send a JobResult;
                    # anything else is a corrupted payload.
                    kind = "corrupt"
                    outcome = fallback_job_result(
                        job,
                        self.options.cegis,
                        "worker sent "
                        f"{type(outcome).__name__} instead of a JobResult",
                    )
                # Answer now; the worker is joined on a later poll.
                self._release(token)
                events.append(PoolEvent(token, job, outcome, kind=kind))
                continue
            if not proc.is_alive() and not conn.poll(0):
                # Worker died without reporting (crash/OOM).
                exitcode = proc.exitcode
                self._release(token)
                events.append(PoolEvent(
                    token, job,
                    fallback_job_result(
                        job,
                        self.options.cegis,
                        f"worker exited with code {exitcode}",
                    ),
                    kind="died",
                ))
                continue
            limit = _kill_limit(job, self.options.kill_seconds)
            if time.monotonic() - started_at > limit:
                proc.terminate()
                self.stats.killed += 1
                global_counters().fault_recoveries += 1
                self._release(token)
                events.append(PoolEvent(
                    token, job,
                    fallback_job_result(
                        job, self.options.cegis, "worker killed after timeout"
                    ),
                    kind="killed",
                ))
        if events:
            self._fold(events)
        return events

    def _fold(self, events: list[PoolEvent]) -> None:
        """Fold handed-out events and the parent's perf delta into
        :attr:`stats`."""
        for event in events:
            self.stats.jobs += 1
            fold_outcome(self.stats, event.outcome)
        now = perf_snapshot()
        for key, value in now.items():
            change = value - self._perf_mark.get(key, 0)
            if change:
                self.stats.perf[key] = self.stats.perf.get(key, 0) + change
        self._perf_mark = now

    def shutdown(self) -> list[Hashable]:
        """Drop every queued job, terminate every still-running worker
        (drain abandonment) and join every worker, so none outlives the
        pool.  Returns the tokens that will get no event — queued ones
        in submission order, then running ones in launch order — for
        the caller to answer."""
        abandoned = list(self._queued) + list(self._running)
        self._queued.clear()
        self._deferred.clear()
        for token in list(self._running):
            proc = self._running[token][0]
            if proc.is_alive():
                proc.terminate()
            self._release(token)
        self._join_exited(block=True)
        return abandoned


class Scheduler:
    """Runs a batch of compile jobs, serially or across worker processes."""

    def __init__(self, options: ServiceOptions | None = None) -> None:
        self.options = options or ServiceOptions()
        self.last_stats = ServiceStats()

    # ------------------------------------------------------------------

    def run(self, jobs: list[CompileJob]) -> list[JobResult]:
        """Execute all jobs; results come back in the input order."""
        started = time.monotonic()
        if self.options.jobs <= 1 or len(jobs) <= 1:
            stats = ServiceStats(
                jobs=len(jobs), workers=max(1, self.options.jobs)
            )
            results = [
                execute_job(job, self.options.cache_dir, self.options.cegis)
                for job in jobs
            ]
            for outcome in results:
                fold_outcome(stats, outcome)
        else:
            prewarm(self.options.cache_dir)
            pool = WorkerPool(self.options)
            for index, job in enumerate(jobs):
                pool.submit(index, job)
            outcomes: dict[int, JobResult] = {}
            pool.launch_ready()
            while pool.active:
                pool.wait()
                for event in pool.poll():
                    outcomes[event.token] = event.outcome
                pool.launch_ready()
            pool.shutdown()
            results = [outcomes[index] for index in range(len(jobs))]
            stats = pool.stats
        stats.wall_seconds = time.monotonic() - started
        self.last_stats = stats
        if self.options.cache_dir is not None:
            from repro.service.store import record_run_telemetry

            record_run_telemetry(self.options.cache_dir, stats.to_dict())
        return results


def _kill_limit(job: CompileJob, default_seconds: float = DEFAULT_KILL_SECONDS) -> float:
    """Finite wall limit after which the parent hard-kills the worker.

    Jobs without a wall budget get the configurable backstop instead of
    running unkillable: a worker that hangs while its pipe stays open
    would otherwise wedge the scheduler forever.
    """
    if job.timeout_seconds is None:
        return default_seconds
    return job.timeout_seconds * KILL_GRACE + 5.0


def _worker_main(conn, job: CompileJob, cache_dir, cegis) -> None:
    faults.trip("scheduler.worker.start", detail=job.benchmark)
    mute = faults.check("scheduler.worker.mute", detail=job.benchmark)
    if mute is not None:
        # The PR-2 deadlock scenario: pipe closed, process still alive.
        conn.close()
        time.sleep(mute.delay or 3600.0)
        os._exit(faults.INJECTED_EXIT_CODE)
    try:
        outcome = execute_job(job, cache_dir, cegis)
    except BaseException as exc:  # noqa: BLE001 - must report, not die silent
        from repro.experiments.runner import BenchmarkResult
        from repro.service.jobs import JobTelemetry

        outcome = JobResult(
            job,
            BenchmarkResult(
                job.benchmark, job.isa, job.compiler, None,
                error=f"worker error: {type(exc).__name__}: {exc}",
            ),
            JobTelemetry(),
        )
    faults.trip("scheduler.worker.send", detail=job.benchmark)
    try:
        conn.send(outcome)
        conn.close()
    except (BrokenPipeError, OSError):
        # Parent is gone (or killed us mid-send); nothing left to report.
        os._exit(1)
    # Reported: from here on the parent has answered and only joins us.
    faults.trip("scheduler.worker.exit", detail=job.benchmark)
