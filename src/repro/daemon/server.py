"""The long-lived multi-tenant compilation daemon.

One asyncio front-end owns one warm :class:`~repro.service.scheduler.
WorkerPool` and serves any number of concurrent clients:

* **multiplexing** — newline-delimited JSON frames with request ids;
  responses stream back in completion order, so one connection can
  pipeline many submits and a cache hit overtakes a cold synthesis;
* **cross-client dedup** — requests with the same job signature
  coalesce onto one in-flight synthesis regardless of tenant; the pool
  then defers a job whose *windows* overlap a running job's until the
  owner has published its entries (the same queue, and the same rule,
  as the batch scheduler's);
* **admission control** — per-tenant token buckets and in-flight caps
  plus a global queue bound (:mod:`repro.daemon.admission`); overload
  is answered with typed ``retry_after`` rejections, never buffered;
* **tiered cache** — L1 bounded in-memory LRU of whole job results →
  L2 the persistent on-disk window cache the workers share → L3
  importable/exportable cache packs for fleet warm-up;
* **graceful drain** — SIGTERM stops admission, finishes (or, past the
  drain budget, fails with a typed error) in-flight work, flushes
  telemetry and the optional drain pack, then exits.

The same port answers ``GET /healthz`` and ``GET /stats`` over plain
HTTP for fleet probes.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import faults
from repro.daemon import protocol
from repro.daemon.admission import (
    AdmissionController,
    AdmissionLimits,
    Rejection,
)
from repro.isa.registry import SUPPORTED_ISAS
from repro.service.jobs import COMPILERS, CompileJob
from repro.service.scheduler import (
    DEFAULT_KILL_SECONDS,
    PoolEvent,
    ServiceOptions,
    WorkerPool,
    default_cegis_options,
    prewarm,
)

KNOWN_ISAS = SUPPORTED_ISAS


@dataclass
class DaemonOptions:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported on start
    jobs: int = 2
    cache_dir: str | None = None
    cegis: object = field(default_factory=default_cegis_options)
    kill_seconds: float = DEFAULT_KILL_SECONDS
    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    # L1 (in-memory result LRU) capacity, in whole job results.
    l1_capacity: int = 512
    # Seconds the drain waits for in-flight work before abandoning it.
    drain_seconds: float = 60.0
    # Import this cache pack into cache_dir before serving.
    warm_pack: str | None = None
    # The pump wakes on events (a submit, a worker's pipe turning
    # readable); this tick is only the backstop that enforces worker
    # kill limits and the drain deadline.
    pump_interval: float = 0.02


class _Connection:
    """One client connection's write side (single-writer via the loop)."""

    _next_id = 0

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        _Connection._next_id += 1
        self.id = _Connection._next_id
        self.writer = writer
        self.alive = True


@dataclass
class _Request:
    """One submit frame awaiting a response."""

    conn: _Connection
    frame_id: str
    tenant: str


class DaemonServer:
    def __init__(self, options: DaemonOptions | None = None) -> None:
        self.options = options or DaemonOptions()
        self.admission = AdmissionController(self.options.limits)
        self.counters = {
            "connections_total": 0,
            "connections_open": 0,
            "frames": 0,
            "bad_frames": 0,
            "submits": 0,
            "responses": 0,
            "l1_hits": 0,
            "l1_lookups": 0,
            "l1_evictions": 0,
            "coalesced": 0,
            "conn_drops": 0,
            "internal_errors": 0,
            "drain_abandoned": 0,
            "http_requests": 0,
            "pack_imported_entries": 0,
            "rulebooks_preloaded": 0,
        }
        # L1: job signature -> response payload (result + telemetry).
        self._l1: OrderedDict[tuple, dict] = OrderedDict()
        # Job signature -> the requests it answers (owner first, then
        # coalesced followers), for every job the pool holds.  The
        # signature is also the job's pool token.
        self._inflight: dict[tuple, list[_Request]] = {}
        self._pool: WorkerPool | None = None
        self._server: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task | None = None
        # Set by whatever gives the pump something to do.
        self._wake = asyncio.Event()
        # token -> fd of the worker pipe registered with the loop.
        self._watched: dict[tuple, int] = {}
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self.options.warm_pack and self.options.cache_dir:
            from repro.service.store import import_pack

            merged = import_pack(self.options.cache_dir, self.options.warm_pack)
            self.counters["pack_imported_entries"] += merged["imported"]
        # Everything a worker reads is built here, once, blocking the
        # loop at startup, so every forked worker inherits it warm.
        self.counters["rulebooks_preloaded"] += prewarm(self.options.cache_dir)
        self._pool = WorkerPool(
            ServiceOptions(
                jobs=self.options.jobs,
                cache_dir=self.options.cache_dir,
                cegis=self.options.cegis,
                kill_seconds=self.options.kill_seconds,
            )
        )
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_conn, self.options.host, self.options.port
        )
        self._pump_task = asyncio.create_task(self._pump())

    @property
    def bound_port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def wait_drained(self) -> None:
        await self._drained.wait()

    def request_drain(self) -> None:
        """Signal-safe entry: stop admitting; the pump finishes the rest."""
        self._draining = True
        self._wake.set()
        if self._server is not None:
            self._server.close()

    async def drain(self) -> None:
        """Stop admission, settle in-flight work, flush, and stop."""
        self.request_drain()
        await self._drained.wait()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self.counters["connections_total"] += 1
        self.counters["connections_open"] += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame longer than the stream limit: protocol abuse;
                    # answer once and hang up rather than buffering.
                    self.counters["bad_frames"] += 1
                    await self._send(
                        conn,
                        protocol.error_response(
                            "", "bad_request", "frame too long"
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if protocol.looks_like_http(line):
                    await self._handle_http(line, reader, writer)
                    break
                self.counters["frames"] += 1
                await self._handle_frame(conn, stripped)
        finally:
            conn.alive = False
            self.counters["connections_open"] -= 1
            try:
                writer.close()
            except Exception:
                pass

    async def _send(self, conn: _Connection, frame: dict) -> None:
        """Write one response frame, honoring injected connection drops."""
        if not conn.alive:
            return
        spec = faults.check(
            "daemon.conn.drop", detail=str(frame.get("id", ""))
        )
        if spec is not None:
            if spec.kind == "slow":
                await asyncio.sleep(spec.delay or 0.05)
            else:
                # Drop: close the transport without the response frame.
                # The client sees clean EOF — a typed client-side error,
                # never a hang.
                self.counters["conn_drops"] += 1
                conn.alive = False
                try:
                    conn.writer.close()
                except Exception:
                    pass
                return
        try:
            conn.writer.write(protocol.encode_frame(frame))
            # A client that stopped reading must not wedge the pump via
            # TCP backpressure: bound the flush and abandon the laggard.
            await asyncio.wait_for(conn.writer.drain(), timeout=10.0)
            self.counters["responses"] += 1
        except (asyncio.TimeoutError, ConnectionError, OSError):
            conn.alive = False

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    async def _handle_frame(self, conn: _Connection, line: bytes) -> None:
        try:
            frame = protocol.decode_frame(line)
        except protocol.ProtocolError as exc:
            self.counters["bad_frames"] += 1
            await self._send(
                conn, protocol.error_response("", "bad_request", str(exc))
            )
            return
        frame_id = str(frame.get("id", ""))
        op = frame.get("op", "submit")
        if op == "ping":
            await self._send(
                conn, protocol.ok_response(frame_id, {"pong": True})
            )
            return
        if op == "stats":
            await self._send(
                conn,
                protocol.ok_response(frame_id, {"stats": self.stats_payload()}),
            )
            return
        if op != "submit":
            self.counters["bad_frames"] += 1
            await self._send(
                conn,
                protocol.error_response(
                    frame_id, "bad_request", f"unknown op {op!r}"
                ),
            )
            return
        await self._handle_submit(conn, frame_id, frame)

    async def _handle_submit(
        self, conn: _Connection, frame_id: str, frame: dict
    ) -> None:
        self.counters["submits"] += 1
        if self._draining:
            await self._send(
                conn,
                protocol.error_response(
                    frame_id, "draining", "daemon is draining; not admitting"
                ),
            )
            return
        try:
            job = protocol.job_from_request(frame)
        except protocol.ProtocolError as exc:
            self.counters["bad_frames"] += 1
            await self._send(
                conn, protocol.error_response(frame_id, "bad_request", str(exc))
            )
            return
        problem = self._validate(job)
        if problem:
            await self._send(
                conn, protocol.error_response(frame_id, "bad_request", problem)
            )
            return

        try:
            self.admission.admit(job.tenant, queue_depth=self._pool.queued)
        except Rejection as exc:
            await self._send(
                conn,
                protocol.error_response(
                    frame_id, exc.error_type, exc.message,
                    retry_after=exc.retry_after,
                ),
            )
            return

        request = _Request(conn, frame_id, job.tenant)
        try:
            # Models a daemon crash (or bug) between accepting the frame
            # and enqueuing the job: "raise" becomes a typed internal
            # error, "exit" kills the process mid-window.
            faults.trip("daemon.enqueue", detail=job.benchmark)

            # L1: a whole identical job already served from this daemon.
            signature = job.signature()
            self.counters["l1_lookups"] += 1
            payload = self._l1.get(signature)
            if payload is not None:
                self._l1.move_to_end(signature)
                self.counters["l1_hits"] += 1
                self.admission.release(job.tenant)
                served = dict(payload)
                # An L1 hit does no work; its telemetry must say so (the
                # original job's synth/lookup counts belong to that job).
                served["telemetry"] = {
                    "cache_hits": 0,
                    "failure_hits": 0,
                    "synth_calls": 0,
                    "rule_hits": 0,
                    "entries_added": 0,
                    "wall_seconds": 0.0,
                    "attempts": 0,
                    "fallback": False,
                }
                response = protocol.ok_response(frame_id, served)
                response["served_by"] = "l1"
                await self._send(conn, response)
                return

            # Cross-client dedup: identical job already in flight.
            requests = self._inflight.get(signature)
            if requests is not None:
                requests.append(request)
                self.counters["coalesced"] += 1
                return

            self._pool.submit(signature, job)
            self._inflight[signature] = [request]
            self._wake.set()
        except faults.InjectedFault as exc:
            self.counters["internal_errors"] += 1
            self.admission.release(job.tenant, completed=False)
            await self._send(
                conn,
                protocol.error_response(
                    frame_id, "internal", f"enqueue failed: {exc}"
                ),
            )

    def _validate(self, job: CompileJob) -> str:
        if job.compiler not in COMPILERS:
            return (
                f"unknown compiler {job.compiler!r} "
                f"(known: {', '.join(COMPILERS)})"
            )
        if job.isa not in KNOWN_ISAS:
            return f"unknown isa {job.isa!r} (known: {', '.join(KNOWN_ISAS)})"
        try:
            from repro.workloads.registry import benchmark_named

            benchmark_named(job.benchmark)
        except Exception:
            return f"unknown benchmark {job.benchmark!r}"
        return ""

    # ------------------------------------------------------------------
    # The pump: the externally-driven event loop around the worker pool
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        drain_deadline: float | None = None
        while True:
            # Cleared before the work, so a submit or a result landing
            # while this pass awaits a send triggers another pass.
            self._wake.clear()
            try:
                for event in self._harvest():
                    await self._complete(event)
                for token in self._pool.launch_ready():
                    self._watch(token)
            except Exception:  # noqa: BLE001 - the pump must never die
                self.counters["internal_errors"] += 1
            if self._draining:
                if drain_deadline is None:
                    drain_deadline = (
                        time.monotonic() + self.options.drain_seconds
                    )
                settled = not self._inflight
                if settled or time.monotonic() > drain_deadline:
                    await self._finish_drain()
                    return
            # Sleep until an event; the tick is the backstop for what no
            # event announces (a worker past its kill limit, a worker
            # that died with its pipe held open, the drain deadline).
            tick = loop.call_later(self.options.pump_interval, self._wake.set)
            await self._wake.wait()
            tick.cancel()

    def _harvest(self) -> list:
        """``poll()`` the pool and drop the readers of every worker it
        reaped.  poll() has already closed those pipes, so this runs
        before anything can await: a closed fd still registered with the
        loop would be silently inherited by whoever reuses its number."""
        assert self._pool is not None
        events = self._pool.poll()
        for event in events:
            self._unwatch(event.token)
        return events

    def _watch(self, token: tuple) -> None:
        """Wake the pump once when ``token``'s result pipe turns readable
        (a result, EOF, or the worker's death closing its end)."""
        assert self._pool is not None
        fd = self._pool.pipe(token).fileno()
        self._watched[token] = fd
        asyncio.get_running_loop().add_reader(fd, self._on_readable, token)

    def _on_readable(self, token: tuple) -> None:
        # One-shot: a readable pipe stays readable until poll() takes it.
        self._unwatch(token)
        self._wake.set()

    def _unwatch(self, token: tuple) -> None:
        fd = self._watched.pop(token, None)
        if fd is not None:
            asyncio.get_running_loop().remove_reader(fd)

    async def _complete(self, event: PoolEvent) -> None:
        requests = self._inflight.pop(event.token)
        outcome = event.outcome
        payload = protocol.result_to_obj(outcome)
        if outcome.ok and not outcome.telemetry.fallback:
            self._l1[event.token] = payload
            while len(self._l1) > max(1, self.options.l1_capacity):
                self._l1.popitem(last=False)
                self.counters["l1_evictions"] += 1
        # The owner's tier: "rule" when every cache miss was answered by
        # the distilled rulebook (no CEGIS ran), else "synthesis".
        telemetry = outcome.telemetry
        owner_tier = (
            "rule"
            if telemetry.rule_hits > 0 and telemetry.synth_calls == 0
            else "synthesis"
        )
        for index, request in enumerate(requests):
            self.admission.release(request.tenant)
            response = protocol.ok_response(request.frame_id, dict(payload))
            response["served_by"] = owner_tier if index == 0 else "coalesced"
            await self._send(request.conn, response)

    async def _finish_drain(self) -> None:
        """Fail whatever is left with a typed error, flush, and stop."""
        assert self._pool is not None
        for token in list(self._watched):
            self._unwatch(token)
        leftovers = [
            self._inflight.pop(token) for token in self._pool.shutdown()
        ]
        for requests in leftovers:
            for request in requests:
                self.admission.release(request.tenant, completed=False)
                self.counters["drain_abandoned"] += 1
                await self._send(
                    request.conn,
                    protocol.error_response(
                        request.frame_id,
                        "shutdown",
                        "daemon drained before this job finished",
                    ),
                )
        if self.options.cache_dir is not None:
            from repro.service.store import record_run_telemetry

            record_run_telemetry(
                self.options.cache_dir, self.stats_payload()["runs"]
            )
        if self._server is not None:
            self._server.close()
        self._drained.set()

    # ------------------------------------------------------------------
    # Stats / HTTP
    # ------------------------------------------------------------------

    def stats_payload(self) -> dict:
        stats = self._pool.stats
        stats.wall_seconds = time.monotonic() - self._started_at
        runs = stats.to_dict()
        l1_lookups = self.counters["l1_lookups"]
        lookups = stats.lookups
        return {
            "daemon": {
                "uptime_seconds": round(
                    time.monotonic() - self._started_at, 3
                ),
                "draining": self._draining,
                "workers": self.options.jobs,
                "workers_active": self._pool.active,
                "queue_depth": self._pool.queued,
                "inflight": len(self._inflight) - self._pool.queued,
                **self.counters,
                "window_deferrals": stats.deferred,
            },
            "admission": self.admission.to_dict(),
            "tiers": {
                "l1": {
                    "hits": self.counters["l1_hits"],
                    "lookups": l1_lookups,
                    "hit_rate": (
                        self.counters["l1_hits"] / l1_lookups
                        if l1_lookups
                        else 0.0
                    ),
                    "size": len(self._l1),
                    "capacity": self.options.l1_capacity,
                    "evictions": self.counters["l1_evictions"],
                },
                "l2": {
                    "cache_hits": stats.cache_hits,
                    "failure_hits": stats.failure_hits,
                    "synth_calls": stats.synth_calls,
                    "hit_rate": round(stats.hit_rate, 4) if lookups else 0.0,
                },
                "rules": {
                    "rule_hits": stats.rule_hits,
                    "matches": runs["perf"].get("rule_matches", 0),
                    "misses": runs["perf"].get("rule_misses", 0),
                    "preloaded": self.counters["rulebooks_preloaded"],
                },
                "pack": {
                    "imported_entries": self.counters["pack_imported_entries"],
                },
            },
            "runs": runs,
        }

    def health_payload(self) -> dict:
        return {
            "ok": not self._draining,
            "draining": self._draining,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "workers_active": self._pool.active if self._pool else 0,
        }

    async def _handle_http(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.counters["http_requests"] += 1
        try:
            while True:  # swallow headers up to the blank line
                header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return
        parts = first_line.decode("ascii", errors="replace").split()
        path = parts[1] if len(parts) > 1 else "/"
        if path.startswith("/healthz"):
            health = self.health_payload()
            body = protocol.http_response(
                200 if health["ok"] else 503, health
            )
        elif path.startswith("/stats"):
            body = protocol.http_response(200, self.stats_payload())
        else:
            body = protocol.http_response(
                404, {"error": f"unknown path {path}"}
            )
        try:
            writer.write(body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass


async def serve(
    options: DaemonOptions,
    ready_callback=None,
    install_signal_handlers: bool = True,
) -> None:
    """Run a daemon until drained (the ``serve`` CLI entry point)."""
    import signal

    server = DaemonServer(options)
    await server.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except (NotImplementedError, RuntimeError):
                pass
    if ready_callback is not None:
        ready_callback(server)
    await server.wait_drained()
