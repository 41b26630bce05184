"""Compile jobs: the unit of work the service schedules.

A job is one (benchmark × ISA × compiler) compilation.  Jobs are plain
picklable dataclasses so they cross process boundaries; execution happens
in :func:`execute_job`, which is also the worker entry point.

Robustness semantics:

* **timeout + retry-with-reduced-budget** — each attempt halves the
  per-window CEGIS budget; an attempt that overruns its share of the
  job's wall budget is abandoned and retried with the smaller budget
  (synthesis that can't fit simply degrades to more cache/negative-cache
  entries and split windows).
* **graceful degradation** — if every attempt errors out (or the
  scheduler kills a hung worker), the job is re-run through the fallback
  baseline backend (``llvm`` by default, ``rake`` selectable) and the
  substitution is recorded in the result's ``error`` note and the job
  telemetry instead of being raised.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

from repro import faults
from repro.autollvm import build_dictionary
from repro.backend import (
    HalideNativeCompiler,
    HydrideCompiler,
    LlvmGenericCompiler,
    RakeCompiler,
)
from repro.experiments.runner import BenchmarkResult, JobTimeout, compile_benchmark
from repro.perf import snapshot as perf_snapshot
from repro.perf import snapshot_delta as perf_snapshot_delta
from repro.synthesis import CegisOptions, MemoCache
from repro.workloads.registry import benchmark_named


def _attempt_fault(job: "CompileJob", attempt: int) -> None:
    """Per-attempt injection inside the retry ladder.

    ``timeout`` raises :class:`JobTimeout` (the attempt walks the ladder
    and retries at a halved budget); standard kinds (``raise``/``slow``/
    ...) are performed as-is and surface through the same handlers a
    real failure would.
    """
    spec = faults.check(
        "jobs.attempt", detail=f"{job.benchmark}:{job.isa}:{attempt}"
    )
    if spec is None:
        return
    if spec.kind == "timeout":
        raise JobTimeout(
            f"injected timeout ({job.benchmark}/{job.isa} attempt {attempt})"
        )
    faults.perform(spec, "jobs.attempt", job.benchmark)


@dataclass
class CompileJob:
    """One compilation request."""

    benchmark: str
    isa: str
    compiler: str = "hydride"
    # Wall-clock budget for the whole job (all attempts); None = no limit
    # beyond the per-window CEGIS budget.
    timeout_seconds: float | None = None
    # Extra attempts after the first, each with a halved CEGIS budget.
    retries: int = 1
    # Baseline backend used when every attempt fails ("" disables).
    fallback: str = "llvm"
    # Daemon provenance: the submitting tenant and its request id.  Both
    # ride along for accounting (per-tenant quotas, response routing)
    # and are inert on the batch/CLI paths, which leave the defaults.
    tenant: str = "default"
    request_id: str = ""

    def signature(self) -> tuple:
        """What makes two requests "the same work" for dedup purposes.

        Tenant and request id are deliberately excluded: identical
        windows from different tenants must coalesce onto one synthesis.
        """
        return (self.benchmark, self.isa, self.compiler)


@dataclass
class JobTelemetry:
    """Per-job accounting reported back to the scheduler."""

    cache_hits: int = 0
    failure_hits: int = 0
    synth_calls: int = 0  # CEGIS searches started (perf ``cegis_searches``)
    # Cache misses served solver-free by the distilled rulebook
    # (repro.synthesis.rules) instead of CEGIS.
    rule_hits: int = 0
    # Entries this job wrote to the persistent store (positive and
    # negative); 0 for a job answered entirely from it.
    entries_added: int = 0
    # Concrete checks of persistent-cache hits (PersistentCache.lookup):
    # hits re-checked, and hits evicted because the stored program
    # failed check_stored_program.
    cache_screened: int = 0
    cache_screen_failures: int = 0
    wall_seconds: float = 0.0
    attempts: int = 1
    worker_pid: int = 0
    fallback: str = ""
    # Synthesis hot-path counters for this job (a repro.perf snapshot
    # delta: phase seconds, cache hits, learned clauses, ...).  Workers
    # are separate processes, so the process-global counters attribute
    # cleanly to the one job the worker is running.
    perf: dict[str, float] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return (
            self.cache_hits + self.failure_hits + self.synth_calls
            + self.rule_hits
        )

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.cache_hits + self.failure_hits) / lookups

    def perf_metrics(self) -> dict[str, float]:
        """Derived hot-path rates (blast-cache hit rate, candidates/sec,
        learned clauses retained) for this job's synthesis work."""
        from repro.perf import derived_metrics

        return derived_metrics(self.perf) if self.perf else {}


@dataclass
class JobResult:
    job: CompileJob
    result: BenchmarkResult
    telemetry: JobTelemetry = field(default_factory=JobTelemetry)

    @property
    def ok(self) -> bool:
        return self.result.ok


# Every compiler a job can name, and how to build it from the job's
# dictionary, cache, CEGIS options and rulebook.
COMPILERS = {
    "hydride": lambda dictionary, cache, cegis, rules: HydrideCompiler(
        dictionary=dictionary, cache=cache, cegis=cegis, rules=rules
    ),
    "halide": lambda *_: HalideNativeCompiler(),
    "llvm": lambda *_: LlvmGenericCompiler(),
    "rake": lambda dictionary, *_: RakeCompiler(dictionary=dictionary),
}


def make_compiler(
    name: str,
    dictionary,
    cache: MemoCache,
    cegis: CegisOptions,
    rules=None,
):
    if name not in COMPILERS:
        raise ValueError(f"unknown compiler {name!r}")
    return COMPILERS[name](dictionary, cache, cegis, rules)


def _open_cache(job: CompileJob, cache_dir, dictionary) -> MemoCache:
    if cache_dir is None or job.compiler != "hydride":
        return MemoCache()
    from repro.service.store import PersistentCache

    return PersistentCache(cache_dir, job.isa, dictionary)


def _open_rules(job: CompileJob, cache: MemoCache):
    """The distilled rulebook for one job, or None.

    Only hydride jobs with a persistent cache have one: the rulebook
    lives as ``rules.json`` inside the cache's fingerprint namespace
    (``PersistentCache.dir``) and is only loaded when its recorded
    fingerprint matches the live dictionary's — a stale book is ignored,
    never applied.  The parsed book is memoized process-wide, so forked
    workers inherit the parent daemon's copy for free.
    """
    if job.compiler != "hydride":
        return None
    directory = getattr(cache, "dir", None)
    if directory is None:
        return None
    from repro.synthesis.rules import load_rulebook

    return load_rulebook(
        directory, cache.dictionary, expect_fingerprint=cache.fingerprint
    )


def _compile_once(
    job: CompileJob,
    compiler_name: str,
    dictionary,
    cache: MemoCache,
    cegis: CegisOptions,
    deadline: float | None,
    rules=None,
) -> BenchmarkResult:
    compiler = make_compiler(compiler_name, dictionary, cache, cegis, rules=rules)
    return compile_benchmark(
        benchmark_named(job.benchmark), job.isa, job.compiler, compiler, deadline
    )


def execute_job(
    job: CompileJob,
    cache_dir: str | None,
    cegis: CegisOptions,
) -> JobResult:
    """Run one job to completion (worker entry point).

    Applies the retry ladder and the baseline fallback; always returns a
    :class:`JobResult`, never raises on compilation problems.
    """
    started = time.monotonic()
    deadline = (
        started + job.timeout_seconds if job.timeout_seconds is not None else None
    )
    # Snapshot first, so whatever this process has to build before it can
    # compile is attributed to the job too: a dictionary the parent did
    # not prewarm (``specs_parsed``, irgen load) and open-time events
    # (reaped litter, absorbed faults).
    perf_before = perf_snapshot()
    dictionary = build_dictionary()
    cache = _open_cache(job, cache_dir, dictionary)
    rules = _open_rules(job, cache)
    telemetry = JobTelemetry(worker_pid=os.getpid())

    result: BenchmarkResult | None = None
    before = cache.counters()
    for attempt in range(job.retries + 1):
        telemetry.attempts = attempt + 1
        budget = dataclasses.replace(
            cegis, timeout_seconds=cegis.timeout_seconds / (2**attempt)
        )
        timed_out = False
        try:
            _attempt_fault(job, attempt)
            result = _compile_once(
                job, job.compiler, dictionary, cache, budget, deadline,
                rules=rules,
            )
        except JobTimeout as exc:
            timed_out = True
            result = BenchmarkResult(
                job.benchmark, job.isa, job.compiler, None, error=str(exc)
            )
        except faults.InjectedFault as exc:
            # Deterministic injected failure: recorded like any other
            # attempt error and resolved by the baseline fallback below.
            result = BenchmarkResult(
                job.benchmark, job.isa, job.compiler, None,
                error=f"injected fault: {exc}",
            )
        if result.ok or not timed_out:
            # Deterministic failures don't improve with a smaller budget;
            # only timed-out attempts walk the retry ladder.
            break

    assert result is not None
    after = cache.counters()
    telemetry.cache_hits = after["hits"] - before["hits"]
    telemetry.failure_hits = after["failure_hits"] - before["failure_hits"]
    # Store counters exist only on PersistentCache; .get keeps the
    # in-memory MemoCache path working.  Entries written, not the
    # growth of the in-memory map: reads grow it too.
    telemetry.entries_added = after.get("writes", 0) - before.get("writes", 0)
    telemetry.cache_screened = (
        after.get("screened", 0) - before.get("screened", 0)
    )
    telemetry.cache_screen_failures = (
        after.get("screen_failures", 0) - before.get("screen_failures", 0)
    )

    if not result.ok and job.fallback and job.fallback != job.compiler:
        original_error = result.error
        fallback_result = _compile_once(
            job, job.fallback, dictionary, MemoCache(), cegis, None
        )
        if fallback_result.ok:
            telemetry.fallback = job.fallback
            result = dataclasses.replace(
                fallback_result,
                error=f"fallback={job.fallback}: {original_error}",
            )

    telemetry.wall_seconds = time.monotonic() - started
    telemetry.perf = {
        key: value
        for key, value in perf_snapshot_delta(perf_before).items()
        if value
    }
    # Windows are counted where they are decided, not derived from the
    # cache's misses: a window the negative cache remembers and a rule
    # rescues is a rule hit without a miss.
    telemetry.synth_calls = int(telemetry.perf.get("cegis_searches", 0))
    telemetry.rule_hits = int(telemetry.perf.get("rule_matches", 0))
    return JobResult(job, result, telemetry)


def fallback_job_result(
    job: CompileJob, cegis: CegisOptions, reason: str
) -> JobResult:
    """Baseline-backend result for a job whose worker had to be killed.

    Runs in the scheduler's own process; the fallback backends do no
    synthesis, so this is fast and cannot hang.
    """
    started = time.monotonic()
    name = job.fallback or "llvm"
    dictionary = build_dictionary()
    result = _compile_once(job, name, dictionary, MemoCache(), cegis, None)
    result = dataclasses.replace(result, error=f"fallback={name}: {reason}")
    telemetry = JobTelemetry(
        worker_pid=os.getpid(),
        fallback=name,
        wall_seconds=time.monotonic() - started,
    )
    return JobResult(job, result, telemetry)
