"""The traced replay: one compile request, spans around every layer.

Nothing under ``src/`` carries spans yet, so the replay drives the same
public functions the daemon and its worker call, in the same order, and
times each from here:

* parent (the daemon's event loop): protocol codec, L1 lookup,
  ``window_keys``, then a *forked* worker — the daemon forks one process
  per job from a parent that has built the dictionary but never parsed a
  vendor spec, and per-process caches are where the warm path's cost
  hides, so an in-process replay would not see it;
* worker: ``build_dictionary``, ``PersistentCache(...)``,
  ``Benchmark.lower``, ``HydrideCompiler.compile`` with proxies for its
  injectable ``cache`` / ``rules`` / ``reuse`` and wrappers over the
  names ``repro.backend.hydride.build_grammar`` / ``.synthesize``, then
  ``CompiledKernel.simulate``.

The phases inside ``synthesize`` (enumeration, dedup, the verification
ladder) come from ``repro.perf.snapshot_delta`` around each call.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import perf
from repro.autollvm import build_dictionary
from repro.autollvm.intrinsics import dictionary_isas
from repro.isa.registry import CORE_ISAS
from repro.backend import hydride as hydride_backend
from repro.daemon import protocol
from repro.experiments.runner import BenchmarkResult
from repro.service.jobs import CompileJob, JobResult, JobTelemetry
from repro.service.scheduler import default_cegis_options, window_keys
from repro.service.store import PersistentCache
from repro.synthesis import ReuseStore, SynthesisFailure, snode_to_obj
from repro.synthesis.rules import load_rulebook
from repro.workloads.registry import benchmark_named

from bench_e2e.spans import Recorder, SpanProxy, timed

REUSE_SPANS = {
    "lookup_envs": "store.lookup", "lookup_clauses": "store.lookup",
    "record_env": "store.write", "record_clauses": "store.write",
    "flush": "store.write",
}
RULES_SPANS = {"match": "rules.match"}

PERF_PHASES = (
    ("cegis.enumeration", "seconds_enumeration"),
    ("cegis.dedup", "seconds_dedup"),
    ("smt.verify", "seconds_verify"),
)


@dataclass
class Capture:
    """What the proxies and wrappers saw besides time."""

    # (isa, window, program) for every program the cache served or
    # stored; programs as live SNodes (in-process) or snode_to_obj
    # dicts (shipped from a forked worker).
    served: list[tuple] = field(default_factory=list)
    # One dict per synthesize call.
    windows: list[dict] = field(default_factory=list)
    lookups: int = 0
    hits: int = 0
    failure_hits: int = 0
    splits: int = 0


class CacheProxy(SpanProxy):
    """The cache argument of ``HydrideCompiler``/``synthesize``: timed,
    counted, and recording every (window, program) pair it hands out or
    takes in — the oracle's input."""

    def __init__(self, target, recorder: Recorder, capture: Capture) -> None:
        super().__init__(target, recorder, {})
        self._capture = capture

    def lookup(self, expr, isa):
        self._capture.lookups += 1
        with self._recorder.span("store.lookup"):
            entry = self._target.lookup(expr, isa)
        if entry is not None:
            self._capture.hits += 1
            self._capture.served.append((isa, expr, entry.program))
        return entry

    def lookup_failure(self, expr, isa):
        self._capture.lookups += 1
        with self._recorder.span("store.lookup"):
            failed = self._target.lookup_failure(expr, isa)
        self._capture.failure_hits += bool(failed)
        return failed

    def store(self, expr, isa, program, cost):
        self._capture.served.append((isa, expr, program))
        with self._recorder.span("store.write"):
            self._target.store(expr, isa, program, cost)

    def store_failure(self, expr, isa):
        with self._recorder.span("store.write"):
            self._target.store_failure(expr, isa)


def traced_synthesize(recorder: Recorder, capture: Capture, real):
    """``synthesize`` as one ``cegis.synth`` span whose children are the
    proxies' spans plus the perf-counter phases."""

    def wrapper(spec, grammar, *args, **kwargs):
        before = perf.snapshot()
        info = {"outcome": "ok", "verified": "", "iterations": 0,
                "grammar_size": grammar.size(), "cache_hit": False}
        with recorder.span("cegis.synth") as span:
            try:
                result = real(spec, grammar, *args, **kwargs)
                info.update(
                    verified=result.stats.verified,
                    iterations=result.stats.iterations,
                    cache_hit=result.stats.cache_hit,
                )
                return result
            except SynthesisFailure as exc:
                info["outcome"] = "timed_out" if exc.timed_out else "failed"
                raise
            finally:
                delta = perf.snapshot_delta(before)
                for name, key in PERF_PHASES:
                    recorder.phase(name, span, delta[key])
                info["sat_seconds"] = delta["seconds_sat"]
                info["sat_queries"] = delta["sat_queries"]
                info["seconds"] = time.monotonic() - span["start"]
                capture.windows.append(info)

    return wrapper


@contextmanager
def patched_backend(recorder: Recorder, capture: Capture):
    """Wrappers over the two names ``HydrideCompiler`` resolves at call
    time, for the duration of the block."""
    real_grammar = hydride_backend.build_grammar
    real_synthesize = hydride_backend.synthesize
    hydride_backend.build_grammar = timed(recorder, "grammar.build", real_grammar)
    hydride_backend.synthesize = traced_synthesize(
        recorder, capture, real_synthesize
    )
    try:
        yield
    finally:
        hydride_backend.build_grammar = real_grammar
        hydride_backend.synthesize = real_synthesize


# ----------------------------------------------------------------------
# The worker half
# ----------------------------------------------------------------------


def run_worker(recorder: Recorder, job: CompileJob, cache_dir: str, cegis) -> dict:
    """What ``execute_job`` does for an ok hydride job, layer by layer.

    Returns a picklable report: spans, result and telemetry fields, the
    capture, the perf delta and the persistent cache's counters."""
    started = time.monotonic()
    capture = Capture()
    perf_before = perf.snapshot()
    with recorder.span("irgen.load"):
        dictionary = build_dictionary(dictionary_isas(job.isa))
    with recorder.span("store.open"):
        cache = PersistentCache(cache_dir, job.isa, dictionary)
        reuse = ReuseStore(Path(cache_dir) / "reuse")
        rules = load_rulebook(
            cache.dir, dictionary, expect_fingerprint=cache.fingerprint
        )
    counters_before = cache.counters()
    with recorder.span("halide.lower"):
        kernels = benchmark_named(job.benchmark).lower(job.isa)
    compiler = hydride_backend.HydrideCompiler(
        dictionary=dictionary,
        cache=CacheProxy(cache, recorder, capture),
        cegis=cegis,
        reuse=SpanProxy(reuse, recorder, REUSE_SPANS),
        rules=None if rules is None
        else SpanProxy(rules, recorder, RULES_SPANS),
    )
    runtime_us = 0.0
    expressions = 0
    with patched_backend(recorder, capture):
        for kernel in kernels:
            with recorder.span("backend.select"):
                compiled = compiler.compile(kernel, job.isa)
            with recorder.span("machine.simulate"):
                runtime_us += compiled.simulate().runtime_us
            expressions += compiled.accounting.expression_count
            capture.splits += compiled.accounting.splits
    with recorder.span("store.write"):
        reuse.flush()
    counters = cache.counters()
    perf_delta = perf.snapshot_delta(perf_before)
    capture.served = [
        (isa, window, snode_to_obj(program))
        for isa, window, program in capture.served
    ]
    return {
        "spans": recorder.spans,
        "runtime_us": runtime_us,
        "expressions": expressions,
        "wall_seconds": time.monotonic() - started,
        "capture": capture,
        "perf": perf_delta,
        "counters": {
            key: counters[key] - counters_before[key] for key in counters
        },
    }


def _worker_main(conn, recorder, job, cache_dir, cegis) -> None:
    # Only spans recorded after the fork travel back.
    recorder.spans = []
    try:
        conn.send(run_worker(recorder, job, cache_dir, cegis))
    except BaseException as exc:  # noqa: BLE001 - report, the parent raises
        conn.send(exc)
        raise
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The parent half
# ----------------------------------------------------------------------


class Replay:
    """Closed-loop in-process replay of a request list."""

    def __init__(self, cache_dir: str, cegis, l1_capacity: int) -> None:
        self.recorder = Recorder()
        self.cache_dir = cache_dir
        self.cegis = cegis
        self.l1_capacity = l1_capacity
        self._l1: OrderedDict[tuple, dict] = OrderedDict()
        self._ctx = multiprocessing.get_context("fork")
        # One report per request that ran a worker, keyed by request id.
        self.reports: dict[str, dict] = {}
        self.tiers: dict[str, str] = {}

    def request(self, frame: dict) -> dict:
        """Serve one submit frame; returns the response payload."""
        recorder = self.recorder
        recorder.trace = str(frame["id"])
        with recorder.span("request"):
            with recorder.span("protocol.codec"):
                job = protocol.job_from_request(
                    protocol.decode_frame(protocol.encode_frame(frame))
                )
            signature = job.signature()
            with recorder.span("daemon.l1"):
                payload = self._l1.get(signature)
                if payload is not None:
                    self._l1.move_to_end(signature)
            if payload is not None:
                self.tiers[recorder.trace] = "l1"
            else:
                with recorder.span("cache.key"):
                    window_keys(job)
                report = self._fork(job)
                self.reports[recorder.trace] = report
                self.tiers[recorder.trace] = (
                    "l2" if report["perf"]["candidates_evaluated"] == 0
                    and report["perf"]["rule_matches"] == 0 else "synthesis"
                )
                payload = self._payload(job, report)
                self._l1[signature] = payload
                while len(self._l1) > self.l1_capacity:
                    self._l1.popitem(last=False)
            with recorder.span("protocol.codec"):
                protocol.encode_frame(
                    protocol.ok_response(str(frame["id"]), dict(payload))
                )
        return payload

    def _fork(self, job: CompileJob) -> dict:
        recorder = self.recorder
        with recorder.span("scheduler.fork_ipc"):
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, recorder, job, self.cache_dir, self.cegis),
            )
            proc.start()
            child_conn.close()
            try:
                report = parent_conn.recv()
            finally:
                parent_conn.close()
                proc.join()
        if isinstance(report, BaseException):
            raise RuntimeError(
                f"replayed worker failed on {job.benchmark}/{job.isa}"
            ) from report
        recorder.adopt(report.pop("spans"))
        return report

    def _payload(self, job: CompileJob, report: dict) -> dict:
        with self.recorder.span("protocol.codec"):
            return protocol.result_to_obj(JobResult(
                job,
                BenchmarkResult(
                    job.benchmark, job.isa, job.compiler,
                    report["runtime_us"],
                    compile_seconds=report["wall_seconds"],
                    expression_count=report["expressions"],
                ),
                JobTelemetry(wall_seconds=report["wall_seconds"]),
            ))


def replay_requests(requests: list[dict], cache_dir, l1_capacity: int,
                    irgen_dir, timeout_seconds: float) -> Replay:
    """A request list, closed loop, through the traced replay.

    Call before anything else warms this process: the workers fork from
    it, and the daemon's parent has built the core dictionary and
    nothing more."""
    os.environ["REPRO_IRGEN_CACHE"] = str(irgen_dir)
    build_dictionary(CORE_ISAS)  # what WorkerPool prewarms
    cegis = default_cegis_options()
    cegis.timeout_seconds = timeout_seconds
    replay = Replay(str(cache_dir), cegis, l1_capacity)
    for index, request in enumerate(requests):
        replay.request({"id": f"t{index}", "op": "submit", **request})
    return replay
