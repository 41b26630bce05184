"""Shared experiment infrastructure: compile + simulate a benchmark suite."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

from repro.autollvm import build_dictionary
from repro.backend import (
    CompileError,
    HalideNativeCompiler,
    HydrideCompiler,
    LlvmGenericCompiler,
    RakeCompiler,
)
from repro.isa.registry import CORE_ISAS
from repro.synthesis import CegisOptions, MemoCache
from repro.workloads.registry import Benchmark, all_benchmarks


@dataclass
class BenchmarkResult:
    benchmark: str
    target: str
    compiler: str
    runtime_us: float | None
    compile_seconds: float = 0.0
    expression_count: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.runtime_us is not None


@dataclass
class SuiteResult:
    target: str
    results: dict[tuple[str, str], BenchmarkResult] = field(default_factory=dict)

    def runtime(self, benchmark: str, compiler: str) -> float | None:
        result = self.results.get((benchmark, compiler))
        return result.runtime_us if result and result.ok else None

    def speedup(self, benchmark: str, compiler: str, baseline: str) -> float | None:
        ours = self.runtime(benchmark, compiler)
        base = self.runtime(benchmark, baseline)
        if ours is None or base is None or ours == 0:
            return None
        return base / ours

    def geomean_speedup(self, compiler: str, baseline: str) -> float | None:
        ratios = []
        for (benchmark, comp) in list(self.results):
            if comp != compiler:
                continue
            ratio = self.speedup(benchmark, compiler, baseline)
            if ratio is not None:
                ratios.append(ratio)
        if not ratios:
            return None
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


class JobTimeout(Exception):
    """A compilation exceeded its wall budget."""


def compile_benchmark(
    benchmark: Benchmark,
    isa: str,
    label: str,
    compiler,
    deadline: float | None = None,
) -> BenchmarkResult:
    """Lower ``benchmark`` for ``isa``, compile and simulate every kernel
    with ``compiler``, and sum the runtimes and window counts into one
    result recorded under compiler ``label``.

    A :class:`CompileError` or any other error is recorded as the
    result's ``error``.  Past ``deadline`` (a monotonic-clock value),
    the next kernel raises :class:`JobTimeout` instead.
    """
    start = time.monotonic()
    try:
        total_us = 0.0
        expressions = 0
        for kernel in benchmark.lower(isa):
            if deadline is not None and time.monotonic() > deadline:
                raise JobTimeout(f"{benchmark.name}/{isa} exceeded its wall budget")
            compiled = compiler.compile(kernel, isa)
            total_us += compiled.simulate().runtime_us
            accounting = getattr(compiled, "accounting", None)
            if accounting is not None:
                expressions += accounting.expression_count
        return BenchmarkResult(
            benchmark.name,
            isa,
            label,
            total_us,
            compile_seconds=time.monotonic() - start,
            expression_count=expressions,
        )
    except CompileError as exc:
        return BenchmarkResult(
            benchmark.name, isa, label, None,
            compile_seconds=time.monotonic() - start, error=str(exc),
        )
    except JobTimeout:
        raise
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal mid-suite
        return BenchmarkResult(
            benchmark.name, isa, label, None,
            compile_seconds=time.monotonic() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


class ExperimentRunner:
    """Compiles and simulates benchmarks across compilers and targets.

    One Hydride compiler (and memo cache) is shared per target, so
    synthesis results accumulate across benchmarks as in the paper's
    Table 4 column II scenario.  With ``cache_dir`` set the per-target
    caches are persistent (:class:`repro.service.store.PersistentCache`),
    so the warm-cache scenario survives process restarts; with ``jobs``
    > 1, ``run_suite`` fans compilations out through the service
    scheduler instead of the in-process serial loop.  With
    ``daemon_addr`` set, ``run_suite`` submits to a running
    :mod:`repro.daemon` instead — sharing that daemon's warm pool and
    tiered cache with every other client of the fleet.
    """

    def __init__(
        self,
        cegis: CegisOptions | None = None,
        cache_dir: str | None = None,
        jobs: int = 1,
        daemon_addr: str | None = None,
    ) -> None:
        from repro.service.scheduler import default_cegis_options

        self.dictionary = build_dictionary()
        self.cegis = cegis or default_cegis_options()
        self.cache_dir = cache_dir
        self.jobs = max(1, jobs)
        self.daemon_addr = daemon_addr
        self.last_service_stats = None
        self.caches: dict[str, MemoCache] = {}
        self.hydride: dict[str, HydrideCompiler] = {}
        for isa in CORE_ISAS:
            self.caches[isa] = self._make_cache(isa)
            self.hydride[isa] = HydrideCompiler(
                dictionary=self.dictionary,
                cache=self.caches[isa],
                cegis=self.cegis,
            )
        self.halide = HalideNativeCompiler()
        self.llvm = LlvmGenericCompiler()
        self.rake = RakeCompiler(dictionary=self.dictionary)

    def _make_cache(self, isa: str) -> MemoCache:
        if self.cache_dir is None:
            return MemoCache()
        from repro.service.store import PersistentCache

        return PersistentCache(self.cache_dir, isa, self.dictionary)

    def compiler_named(self, name: str, isa: str):
        if name == "hydride":
            return self.hydride[isa]
        return {"halide": self.halide, "llvm": self.llvm, "rake": self.rake}[name]

    def run_one(
        self, benchmark: Benchmark, isa: str, compiler_name: str
    ) -> BenchmarkResult:
        return compile_benchmark(
            benchmark, isa, compiler_name, self.compiler_named(compiler_name, isa)
        )

    def run_suite(
        self,
        isa: str,
        compilers: tuple[str, ...],
        benchmarks: list[Benchmark] | None = None,
        jobs: int | None = None,
    ) -> SuiteResult:
        jobs = self.jobs if jobs is None else max(1, jobs)
        benchmarks = benchmarks or all_benchmarks()
        if self.daemon_addr:
            return self._run_suite_daemon(isa, compilers, benchmarks)
        if jobs > 1:
            return self._run_suite_service(isa, compilers, benchmarks, jobs)
        suite = SuiteResult(isa)
        for benchmark in benchmarks:
            for compiler_name in compilers:
                result = self.run_one(benchmark, isa, compiler_name)
                suite.results[(benchmark.name, compiler_name)] = result
        return suite

    def _run_suite_service(
        self,
        isa: str,
        compilers: tuple[str, ...],
        benchmarks: list[Benchmark],
        jobs: int,
    ) -> SuiteResult:
        """Fan the suite out through the compilation service."""
        from repro.service import CompileJob, Scheduler, ServiceOptions

        requests = [
            CompileJob(benchmark.name, isa, compiler_name)
            for benchmark in benchmarks
            for compiler_name in compilers
        ]
        scheduler = Scheduler(
            ServiceOptions(jobs=jobs, cache_dir=self.cache_dir, cegis=self.cegis)
        )
        suite = SuiteResult(isa)
        for outcome in scheduler.run(requests):
            result = _requested_result(outcome.result, outcome.telemetry.fallback)
            suite.results[(result.benchmark, result.compiler)] = result
        self.last_service_stats = scheduler.last_stats
        return suite

    def _run_suite_daemon(
        self,
        isa: str,
        compilers: tuple[str, ...],
        benchmarks: list[Benchmark],
    ) -> SuiteResult:
        """Fan the suite out to a running compilation daemon."""
        from repro.daemon.client import DaemonClient

        pairs = [
            (benchmark.name, compiler_name)
            for benchmark in benchmarks
            for compiler_name in compilers
        ]
        requests = [
            {"benchmark": name, "isa": isa, "compiler": compiler_name}
            for name, compiler_name in pairs
        ]
        with DaemonClient.connect(self.daemon_addr, timeout=None) as client:
            frames = client.submit_many(requests)
            self.last_service_stats = client.stats()
        suite = SuiteResult(isa)
        for (name, compiler_name), frame in zip(pairs, frames):
            suite.results[(name, compiler_name)] = result_from_frame(
                frame, name, isa, compiler_name
            )
        return suite


def _requested_result(result: BenchmarkResult, fallback: str) -> BenchmarkResult:
    """``result`` as the requested compiler's outcome.

    A job the service answered with its baseline ``fallback`` failed
    for the compiler it names: the experiments compare compilers, so
    the baseline's runtime must not stand in for the requested one's.
    The error (``fallback=<name>: <why>``) is kept.
    """
    if not fallback:
        return result
    return dataclasses.replace(result, runtime_us=None)


def result_from_frame(
    frame: dict, name: str, isa: str, compiler_name: str
) -> BenchmarkResult:
    """The suite result of one daemon response frame."""
    if not frame.get("ok"):
        error = frame.get("error") or {}
        return BenchmarkResult(
            name, isa, compiler_name, None,
            error=(
                f"daemon {error.get('type', 'error')}: "
                f"{error.get('message', '')}"
            ),
        )
    result = frame.get("result") or {}
    # The fallback is judged here, not by the daemon: its job signature
    # ignores ``fallback``, so L1 and coalescing can hand back a result
    # another client's job fell back on.
    return _requested_result(
        BenchmarkResult(
            name,
            isa,
            compiler_name,
            result.get("runtime_us"),
            compile_seconds=result.get("compile_seconds", 0.0),
            expression_count=result.get("expression_count", 0),
            error=result.get("error", ""),
        ),
        (frame.get("telemetry") or {}).get("fallback", ""),
    )


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
