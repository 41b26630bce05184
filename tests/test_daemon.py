"""Tests for repro.daemon: protocol, admission, packs, and the live
daemon (dedup, L1, quotas, drain) via a real subprocess."""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time

import pytest

from repro import faults
from repro.daemon.admission import (
    AdmissionController,
    AdmissionLimits,
    Rejection,
    TokenBucket,
)
from repro.daemon.client import DaemonClient, DaemonError, http_get, parse_addr
from repro.daemon.proc import DaemonProcess
from repro.daemon import protocol
from repro.daemon.server import DaemonOptions, serve
from repro.faults import FaultPlan, FaultSpec
from repro.halide import ir as hir
from repro.synthesis import CegisOptions
from repro.service.store import PackError, export_pack, import_pack
from repro.synthesis.cache import MemoCache
from repro.synthesis.program import SInput, SSlice


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"id": "r1", "op": "submit", "benchmark": "add"}
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"not json")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"[1, 2, 3]")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_job_from_request_defaults(self):
        job = protocol.job_from_request(
            {"id": "r9", "benchmark": "add", "isa": "x86"}
        )
        assert job.benchmark == "add"
        assert job.isa == "x86"
        assert job.compiler == "hydride"
        assert job.tenant == "default"
        assert job.request_id == "r9"
        assert job.retries == 1
        assert job.fallback == "llvm"

    def test_job_from_request_validates(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.job_from_request({"id": "r1", "isa": "x86"})
        with pytest.raises(protocol.ProtocolError):
            protocol.job_from_request(
                {"benchmark": "add", "isa": "x86", "timeout_seconds": "soon"}
            )
        with pytest.raises(protocol.ProtocolError):
            protocol.job_from_request(
                {"benchmark": "add", "isa": "x86", "retries": "many"}
            )

    def test_signature_excludes_tenant(self):
        a = protocol.job_from_request(
            {"id": "1", "benchmark": "add", "isa": "x86", "tenant": "a"}
        )
        b = protocol.job_from_request(
            {"id": "2", "benchmark": "add", "isa": "x86", "tenant": "b"}
        )
        assert a.signature() == b.signature()

    def test_error_response_typed(self):
        frame = protocol.error_response(
            "r1", "quota_exceeded", "slow down", retry_after=0.12345
        )
        assert frame["ok"] is False
        assert frame["error"]["type"] == "quota_exceeded"
        assert frame["error"]["retry_after"] == 0.123
        assert protocol.ERROR_TYPES["quota_exceeded"] is True
        plain = protocol.error_response("r2", "bad_request", "nope")
        assert "retry_after" not in plain["error"]

    def test_http_sniffing_and_response(self):
        assert protocol.looks_like_http(b"GET /stats HTTP/1.1\r\n")
        assert not protocol.looks_like_http(b'{"op": "ping"}\n')
        blob = protocol.http_response(200, {"ok": True})
        head, _, body = blob.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert json.loads(body) == {"ok": True}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_parse_addr(self):
        assert parse_addr("1.2.3.4:99") == ("1.2.3.4", 99)
        assert parse_addr(":99") == ("127.0.0.1", 99)
        assert parse_addr("99") == ("127.0.0.1", 99)
        with pytest.raises(DaemonError):
            parse_addr("nope")


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------


class TestAdmission:
    def test_token_bucket_burst_then_rate(self):
        bucket = TokenBucket(rate=2.0, burst=3)
        now = 100.0
        assert bucket.take(now) is None
        assert bucket.take(now) is None
        assert bucket.take(now) is None
        wait = bucket.take(now)
        assert wait == pytest.approx(0.5)
        # Half a second later one token has accrued.
        assert bucket.take(now + 0.5) is None

    def test_inflight_cap_rejects_with_retry_after(self):
        controller = AdmissionController(
            AdmissionLimits(tenant_rate=1000.0, tenant_burst=1000,
                            tenant_max_inflight=2)
        )
        controller.admit("t", queue_depth=0)
        controller.admit("t", queue_depth=0)
        with pytest.raises(Rejection) as exc_info:
            controller.admit("t", queue_depth=0)
        assert exc_info.value.error_type == "quota_exceeded"
        assert exc_info.value.retry_after is not None
        controller.release("t")
        controller.admit("t", queue_depth=0)  # slot freed

    def test_queue_bound_rejects_globally(self):
        controller = AdmissionController(
            AdmissionLimits(tenant_rate=1000.0, tenant_burst=1000,
                            max_queue=1)
        )
        with pytest.raises(Rejection) as exc_info:
            controller.admit("t", queue_depth=1)
        assert exc_info.value.error_type == "queue_full"
        assert controller.rejected_queue == 1

    def test_no_rate_limit_by_default(self):
        controller = AdmissionController()
        assert controller.limits.tenant_rate is None
        for _ in range(5000):
            controller.admit("t", queue_depth=0)
            controller.release("t")
        snapshot = controller.to_dict()
        assert snapshot["rejected"] == {"rate": 0, "inflight": 0, "queue": 0}
        assert snapshot["limits"]["tenant_rate"] is None
        assert json.loads(json.dumps(snapshot))["limits"]["tenant_rate"] is None

    def test_default_still_bounds_inflight_and_queue(self):
        controller = AdmissionController()
        for _ in range(controller.limits.tenant_max_inflight):
            controller.admit("t", queue_depth=0)
        with pytest.raises(Rejection) as exc_info:
            controller.admit("t", queue_depth=0)
        assert exc_info.value.error_type == "quota_exceeded"
        assert controller.rejected_inflight == 1
        with pytest.raises(Rejection) as exc_info:
            controller.admit("u", queue_depth=controller.limits.max_queue)
        assert exc_info.value.error_type == "queue_full"

    def test_explicit_rate_keeps_bucket_semantics(self):
        controller = AdmissionController(
            AdmissionLimits(tenant_rate=2.0, tenant_burst=1)
        )
        controller.admit("t", queue_depth=0)
        with pytest.raises(Rejection) as exc_info:
            controller.admit("t", queue_depth=0)
        assert exc_info.value.error_type == "quota_exceeded"
        assert 0.0 < exc_info.value.retry_after <= 0.5
        assert controller.rejected_rate == 1
        # rate <= 0 still means banned: burst spent, then a hard back-off.
        banned = AdmissionController(
            AdmissionLimits(tenant_rate=0.0, tenant_burst=1)
        )
        banned.admit("t", queue_depth=0)
        with pytest.raises(Rejection) as exc_info:
            banned.admit("t", queue_depth=0)
        assert exc_info.value.retry_after == 60.0

    def test_tenants_accounted_separately(self):
        controller = AdmissionController(
            AdmissionLimits(tenant_rate=1000.0, tenant_burst=1000,
                            tenant_max_inflight=1)
        )
        controller.admit("a", queue_depth=0)
        controller.admit("b", queue_depth=0)  # b has its own cap
        snapshot = controller.to_dict()
        assert snapshot["tenants"]["a"]["inflight"] == 1
        assert snapshot["tenants"]["b"]["inflight"] == 1


# ----------------------------------------------------------------------
# MemoCache LRU bound (satellite)
# ----------------------------------------------------------------------


def _window(op: str, lanes=16, ew=16):
    return hir.HBin(
        op, hir.HLoad("ld0", lanes, ew), hir.HLoad("ld1", lanes, ew)
    )


def _program():
    return SSlice(SInput("ld0", 16, 16), high=True)


class TestMemoCacheLRU:
    def test_unbounded_by_default(self):
        cache = MemoCache()
        for op in ("add", "sub", "mul", "and", "or"):
            cache.store(_window(op), "x86", _program(), 1.0)
        assert len(cache) == 5


# ----------------------------------------------------------------------
# Cache packs on plain files (no compiler stack involved)
# ----------------------------------------------------------------------


# A namespace directory name: FINGERPRINT_DIR_CHARS lowercase hex chars.
FP = "00f0" * 4


def _fake_namespace(root, isa="x86", fingerprint=FP, entries=2):
    namespace = root / isa / fingerprint
    namespace.mkdir(parents=True)
    (namespace / "meta.json").write_text(
        json.dumps({"fingerprint": fingerprint})
    )
    for index in range(entries):
        (namespace / f"e-{index:04d}.json").write_text(
            json.dumps({"program": index})
        )
    (namespace / "f-0000.json").write_text(json.dumps({"failed": True}))
    return namespace


class TestCachePacks:
    def test_export_import_round_trip(self, tmp_path):
        source = tmp_path / "src-cache"
        source.mkdir()
        _fake_namespace(source)
        pack = tmp_path / "warm.pack"
        summary = export_pack(source, pack)
        assert summary["namespaces"] == 1
        assert summary["entries"] == 2
        assert summary["failures"] == 1

        target = tmp_path / "dst-cache"
        result = import_pack(target, pack)
        assert result["imported"] == 3
        namespace = target / "x86" / FP
        assert json.loads((namespace / "meta.json").read_text()) == {
            "fingerprint": FP
        }
        assert json.loads((namespace / "e-0001.json").read_text()) == {
            "program": 1
        }

    def test_import_is_idempotent(self, tmp_path):
        source = tmp_path / "src-cache"
        source.mkdir()
        _fake_namespace(source)
        pack = tmp_path / "warm.pack"
        export_pack(source, pack)
        import_pack(tmp_path / "dst", pack)
        again = import_pack(tmp_path / "dst", pack)
        assert again["imported"] == 0
        assert again["skipped"] == 3

    def test_export_skips_tmp_litter(self, tmp_path):
        source = tmp_path / "src-cache"
        source.mkdir()
        namespace = _fake_namespace(source)
        (namespace / ".tmp-torn.json").write_text("garbage")
        summary = export_pack(source, tmp_path / "warm.pack")
        assert summary["entries"] == 2

    def test_import_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.pack"
        bad.write_text("not json")
        with pytest.raises(PackError):
            import_pack(tmp_path / "dst", bad)
        bad.write_text(json.dumps({"version": 99, "namespaces": []}))
        with pytest.raises(PackError):
            import_pack(tmp_path / "dst", bad)
        with pytest.raises(PackError):
            import_pack(tmp_path / "dst", tmp_path / "missing.pack")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("isa", "../escaped"),
            ("isa", "{tmp}/escaped"),
            ("isa", "mips"),
            ("dir", "../../escaped00"),
            ("dir", "ABCDEF0123456789"),
            ("dir", "fp00"),
        ],
    )
    def test_import_rejects_namespace_outside_root(self, tmp_path, field, value):
        """A namespace's isa/dir become path components: only registered
        ISAs and fingerprint-shaped dirs are accepted, and a bad
        namespace anywhere in the pack means nothing is written."""
        good = {
            "isa": "x86", "dir": FP, "meta": {"fingerprint": FP},
            "files": {"e-0000.json": {"program": 0}},
        }
        bad = dict(good, **{field: value.format(tmp=tmp_path)})
        pack = tmp_path / "evil.pack"
        pack.write_text(json.dumps({"version": 2, "namespaces": [good, bad]}))
        root = tmp_path / "area" / "root"
        root.mkdir(parents=True)
        before = sorted(p for p in tmp_path.rglob("*"))
        with pytest.raises(PackError):
            import_pack(root, pack)
        assert sorted(p for p in tmp_path.rglob("*")) == before


# ----------------------------------------------------------------------
# Live daemon (subprocess) — the serving acceptance scenario
# ----------------------------------------------------------------------


@pytest.mark.daemon_smoke
class TestDaemonSmoke:
    """Dedup, tiers, quotas, and drain against a real daemon process."""

    BENCHMARKS = ("add", "mul")
    EXTRA = ["--synth-timeout", "6"]

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("daemon-smoke")

    @pytest.fixture(scope="class")
    def cold(self, work):
        """One daemon lifetime: concurrent duplicate clients, an L1
        repass, a stats scrape, then SIGTERM drain and pack export."""
        requests = [
            {"benchmark": name, "isa": "x86"} for name in self.BENCHMARKS
        ]
        batches: dict = {}

        def submit(tenant: str) -> None:
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                batches[tenant] = client.submit_many(requests, tenant=tenant)

        with DaemonProcess(
            cache_dir=str(work / "cache"), jobs=2, extra_args=self.EXTRA
        ) as daemon:
            threads = [
                threading.Thread(target=submit, args=(tenant,))
                for tenant in ("tenant-a", "tenant-b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with DaemonClient.connect(daemon.addr, timeout=120.0) as client:
                repass = client.submit_many(requests, tenant="tenant-a")
            stats = http_get(daemon.addr, "/stats")
            health = http_get(daemon.addr, "/healthz")
            daemon.send_sigterm()
            exit_code = daemon.wait(timeout=60.0)
        pack = work / "warm.pack"
        export_pack(work / "cache", pack)
        return {
            "batches": batches,
            "repass": repass,
            "stats": stats,
            "health": health,
            "exit_code": exit_code,
            "pack": pack,
        }

    def test_every_client_answered_ok(self, cold):
        for tenant in ("tenant-a", "tenant-b"):
            frames = cold["batches"][tenant]
            assert len(frames) == len(self.BENCHMARKS)
            assert all(frame.get("ok") for frame in frames)
            assert all(
                (frame.get("result") or {}).get("runtime_us") is not None
                for frame in frames
            )

    def test_identical_submits_synthesize_exactly_once(self, cold):
        stats = cold["stats"]
        # 2 clients x 2 benchmarks = 4 submits + 2 repass = 6, but only
        # one synthesis per unique job ever ran.
        assert stats["runs"]["jobs"] == len(self.BENCHMARKS)
        daemon = stats["daemon"]
        absorbed = daemon["coalesced"] + daemon["l1_hits"]
        assert absorbed >= len(self.BENCHMARKS)

    def test_l1_repass_runs_zero_synthesis(self, cold):
        assert all(f["served_by"] == "l1" for f in cold["repass"])
        assert (
            sum(f["telemetry"]["synth_calls"] for f in cold["repass"]) == 0
        )
        tiers = cold["stats"]["tiers"]
        assert tiers["l1"]["hits"] >= len(self.BENCHMARKS)
        assert tiers["l1"]["capacity"] > 0

    def test_healthy_and_clean_drain(self, cold):
        assert cold["health"]["ok"] is True
        assert cold["exit_code"] == 0

    def test_pack_warmed_fresh_daemon_zero_synthesis(self, cold, work):
        requests = [
            {"benchmark": name, "isa": "x86"} for name in self.BENCHMARKS
        ]
        with DaemonProcess(
            cache_dir=str(work / "cache-fresh"),
            jobs=2,
            extra_args=self.EXTRA + ["--warm-pack", str(cold["pack"])],
        ) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                frames = client.submit_many(requests, tenant="fleet")
            stats = http_get(daemon.addr, "/stats")
        assert all(frame.get("ok") for frame in frames)
        assert stats["runs"]["synth_calls"] == 0
        assert stats["daemon"]["pack_imported_entries"] > 0

    def test_quota_rejections_carry_retry_after(self, cold, work):
        # Tight quotas + duplicate submits: the first is admitted, the
        # rest must bounce with typed, retryable rejections.
        with DaemonProcess(
            cache_dir=str(work / "cache-quota"),
            jobs=1,
            extra_args=self.EXTRA + [
                "--warm-pack", str(cold["pack"]),
                "--tenant-rate", "0.001",
                "--tenant-burst", "2",
                "--tenant-max-inflight", "1",
            ],
        ) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                frames = client.submit_many(
                    [{"benchmark": "add", "isa": "x86"}] * 4,
                    tenant="greedy",
                )
        assert frames[0].get("ok")
        rejected = [frame for frame in frames if not frame.get("ok")]
        assert rejected, "tight quotas produced no rejections"
        for frame in rejected:
            error = frame["error"]
            assert error["type"] in ("quota_exceeded", "queue_full")
            assert error.get("retry_after") is not None

    def test_sigterm_drain_completes_inflight_work(self, work):
        # SIGTERM lands while a cold synthesis is in flight; the drain
        # must still deliver that client its real result, then exit 0.
        result: dict = {}

        def submit() -> None:
            with DaemonClient.connect(daemon.addr, timeout=600.0) as client:
                result["frame"] = client.submit("add", "x86")

        with DaemonProcess(
            cache_dir=str(work / "cache-drain"), jobs=1,
            extra_args=self.EXTRA,
        ) as daemon:
            thread = threading.Thread(target=submit)
            thread.start()
            time.sleep(1.0)  # let the job launch
            daemon.send_sigterm()
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "client hung through the drain"
            exit_code = daemon.wait(timeout=120.0)
        frame = result["frame"]
        assert frame.get("ok"), frame
        assert frame["result"]["runtime_us"] is not None
        assert exit_code == 0


# ----------------------------------------------------------------------
# In-process daemon: the event-driven pump and the admission defaults
# ----------------------------------------------------------------------


class _LocalDaemon:
    """A ``DaemonServer`` on a background thread's event loop, for the
    options the CLI does not expose (``pump_interval``)."""

    def __init__(self, **options) -> None:
        self.options = DaemonOptions(
            cegis=CegisOptions(timeout_seconds=6.0, scale_factor=8), **options
        )
        self.server = None
        self.addr = ""
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        def ready(server) -> None:
            self.server = server
            self.addr = f"127.0.0.1:{server.bound_port}"
            self._loop = asyncio.get_running_loop()
            self._ready.set()

        asyncio.run(
            serve(self.options, ready, install_signal_handlers=False)
        )

    def __enter__(self) -> "_LocalDaemon":
        self._thread.start()
        assert self._ready.wait(timeout=300.0), "daemon never became ready"
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout=60.0)
        assert not self._thread.is_alive(), "daemon did not drain"


LLVM_ADD = {"benchmark": "add", "isa": "x86", "compiler": "llvm"}


@pytest.fixture
def no_faults():
    """The daemon runs in this process: fault plans must not leak."""
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.mark.usefixtures("no_faults")
class TestEventDrivenPump:
    """With a 5 s tick, only the wake-ups can make these deadlines."""

    def test_submit_and_result_wake_the_pump(self, tmp_path):
        with _LocalDaemon(
            cache_dir=str(tmp_path), jobs=1, pump_interval=5.0, l1_capacity=1
        ) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                for request in (LLVM_ADD, {**LLVM_ADD, "benchmark": "mul"}) * 2:
                    started = time.monotonic()
                    frame = client.submit_many([request])[0]
                    elapsed = time.monotonic() - started
                    assert frame.get("ok"), frame
                    # A worker ran (L1 holds one entry; the jobs alternate).
                    assert frame["served_by"] != "l1"
                    assert elapsed < 2.0, f"waited for the tick: {elapsed:.2f}s"

    def test_eof_of_a_mute_worker_wakes_the_pump(self, tmp_path):
        faults.install_plan(FaultPlan(
            [FaultSpec("scheduler.worker.mute", "hang", match="add", delay=30.0)]
        ))
        with _LocalDaemon(
            cache_dir=str(tmp_path), jobs=1, pump_interval=5.0
        ) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                started = time.monotonic()
                frame = client.submit_many([LLVM_ADD])[0]
                elapsed = time.monotonic() - started
            stats = daemon.server.stats_payload()
        assert frame.get("ok"), frame
        assert "pipe closed" in frame["result"]["error"]
        assert stats["runs"]["worker_eofs"] == 1
        assert elapsed < 4.0, f"EOF recovery waited for the tick: {elapsed:.2f}s"

    def test_tick_kills_a_hung_worker_and_its_reader_goes_with_it(
        self, tmp_path
    ):
        # The worker hangs with its pipe open: no event ever fires, so
        # the residual tick must enforce the kill backstop.  poll()
        # closes the pipe with the one-shot reader still registered; the
        # next worker reuses the fd number and must get a live reader.
        faults.install_plan(FaultPlan(
            [FaultSpec("scheduler.worker.start", "hang", match="add",
                       delay=60.0)]
        ))
        with _LocalDaemon(
            cache_dir=str(tmp_path), jobs=1, pump_interval=0.5,
            kill_seconds=1.0,
        ) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                started = time.monotonic()
                killed = client.submit_many([LLVM_ADD])[0]
                kill_elapsed = time.monotonic() - started
                # Slow the tick right down: from here only a live reader
                # can deliver the next result in time.
                daemon.server.options.pump_interval = 30.0
                time.sleep(0.6)  # let the pump re-arm with the long tick
                started = time.monotonic()
                after = client.submit_many(
                    [{**LLVM_ADD, "benchmark": "mul"}]
                )[0]
                elapsed = time.monotonic() - started
            stats = daemon.server.stats_payload()
        assert killed.get("ok"), killed
        assert "killed after timeout" in killed["result"]["error"]
        assert 1.0 <= kill_elapsed < 10.0
        assert stats["runs"]["killed"] == 1
        assert after.get("ok") and not after["result"].get("error"), after
        assert elapsed < 5.0, f"stale reader: result waited {elapsed:.2f}s"
        assert daemon.server._watched == {}


@pytest.mark.usefixtures("no_faults")
class TestAnswerBeforeReap:
    """A result is answered as soon as it arrives; the worker's exit is
    joined on later polls, never on the event loop's critical path."""

    @staticmethod
    def _exiting(daemon):
        return [proc for proc, _deadline in daemon.server._pool._exiting]

    @staticmethod
    def _wait_reaped(daemon, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while daemon.server._pool._exiting and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not daemon.server._pool._exiting

    def test_a_lingering_worker_stalls_no_one(self, tmp_path):
        faults.install_plan(FaultPlan([
            FaultSpec("scheduler.worker.exit", "slow", match="add", delay=2.0)
        ]))
        pings: list[float] = []
        stop = threading.Event()
        with _LocalDaemon(cache_dir=str(tmp_path), jobs=2) as daemon:

            def ping_loop() -> None:
                with DaemonClient.connect(daemon.addr, timeout=60.0) as pinger:
                    while not stop.is_set():
                        started = time.monotonic()
                        assert pinger.ping()
                        pings.append(time.monotonic() - started)
                        time.sleep(0.02)

            pinger = threading.Thread(target=ping_loop)
            pinger.start()
            try:
                with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                    started = time.monotonic()
                    frame = client.submit_many([LLVM_ADD])[0]
                    elapsed = time.monotonic() - started
                exiting = self._exiting(daemon)
                active = daemon.server._pool.active
                time.sleep(1.0)  # pings keep flowing while it lingers
            finally:
                stop.set()
                pinger.join()
            self._wait_reaped(daemon, 5.0)
        assert frame.get("ok") and not frame["result"].get("error"), frame
        assert elapsed < 0.5, f"answer waited for the exit: {elapsed:.2f}s"
        assert pings and max(pings) < 0.5, f"ping stalled: {max(pings):.2f}s"
        # Answered while the worker lingered, which held no slot; then
        # joined once it exited.
        (worker,) = exiting
        assert active == 0
        assert worker.exitcode == 0

    def test_a_worker_that_never_exits_is_killed(self, tmp_path, monkeypatch):
        from repro.service import scheduler

        monkeypatch.setattr(scheduler, "_JOIN_GRACE_SECONDS", 0.2)
        faults.install_plan(FaultPlan([
            FaultSpec("scheduler.worker.exit", "hang", match="add", delay=60.0)
        ]))
        with _LocalDaemon(cache_dir=str(tmp_path), jobs=2) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                frame = client.submit_many([LLVM_ADD])[0]
            (worker,) = self._exiting(daemon)
            self._wait_reaped(daemon, 5.0)
        # The worker's own answer, not a fallback.
        assert frame.get("ok") and not frame["result"].get("error"), frame
        assert frame["served_by"] == "synthesis"
        assert worker.exitcode == -signal.SIGKILL


@pytest.mark.usefixtures("no_faults")
class TestWindowDeferral:
    def test_overlapping_job_is_deferred_once(self, tmp_path, monkeypatch):
        from repro.service import scheduler

        # Both jobs claim the same window; the first holds its slot for
        # a second, so the second is queued while the first runs.
        monkeypatch.setattr(
            scheduler, "window_keys", lambda job: frozenset({"shared"})
        )
        faults.install_plan(FaultPlan(
            [FaultSpec("scheduler.worker.start", "slow", match="add",
                       delay=1.0)]
        ))
        with _LocalDaemon(cache_dir=str(tmp_path), jobs=2) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                frames = client.submit_many(
                    [LLVM_ADD, {**LLVM_ADD, "benchmark": "mul"}]
                )
            stats = http_get(daemon.addr, "/stats")
        assert all(
            f.get("ok") and f["served_by"] == "synthesis" for f in frames
        ), frames
        assert stats["daemon"]["window_deferrals"] == 1
        assert stats["runs"]["deferred"] == 1
        assert stats["runs"]["jobs"] == 2
        assert stats["daemon"]["queue_depth"] == 0


@pytest.mark.usefixtures("no_faults")
class TestAdmissionDefaults:
    def test_thousand_l1_submits_are_never_rate_limited(self, tmp_path):
        with _LocalDaemon(cache_dir=str(tmp_path), jobs=1) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                assert client.submit_many([LLVM_ADD])[0].get("ok")
                frames = []
                for _ in range(10):  # batches keep socket buffers small
                    frames += client.submit_many([LLVM_ADD] * 100)
            stats = daemon.server.stats_payload()
        assert len(frames) == 1000
        assert all(f.get("ok") and f["served_by"] == "l1" for f in frames)
        assert stats["admission"]["limits"]["tenant_rate"] is None
        assert sum(stats["admission"]["rejected"].values()) == 0

    def test_inflight_cap_still_rejects_by_default(self, tmp_path):
        # One slow worker, one tenant, more distinct jobs than the cap:
        # the surplus bounces off the in-flight gate, not a rate gate.
        faults.install_plan(FaultPlan(
            [FaultSpec("scheduler.worker.start", "slow", delay=1.0)]
        ))
        names = [
            "add", "mul", "average_pool", "max_pool", "matmul_b1", "box_blur3x3",
        ]
        with _LocalDaemon(
            cache_dir=str(tmp_path), jobs=1,
            limits=AdmissionLimits(tenant_max_inflight=2),
        ) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=120.0) as client:
                frames = client.submit_many(
                    [{**LLVM_ADD, "benchmark": name} for name in names]
                )
            stats = daemon.server.stats_payload()
        rejected = [f for f in frames if not f.get("ok")]
        assert len(rejected) == len(names) - 2
        assert all(f["error"]["type"] == "quota_exceeded" for f in rejected)
        assert stats["admission"]["rejected"]["inflight"] == len(rejected)
        assert stats["admission"]["rejected"]["rate"] == 0


@pytest.mark.usefixtures("no_faults")
class TestSubmitCli:
    def test_fallback_is_a_failure_of_the_requested_compiler(
        self, tmp_path, capsys
    ):
        """Rake cannot compile conv_nn on hvx; the daemon answers with
        the llvm fallback, which ``submit`` must not count as Rake's."""
        from repro.daemon.cli import main

        with _LocalDaemon(cache_dir=str(tmp_path), jobs=1) as daemon:
            status = main([
                "submit", "--addr", daemon.addr, "--compiler", "rake",
                "--benchmarks", "conv_nn", "--isa", "hvx",
            ])
        out = capsys.readouterr().out
        assert "conv_nn/hvx: FAIL fallback=llvm: " in out, out
        assert status == 1
