"""Run a daemon as a managed subprocess (tests, smoke, chaos harness).

The daemon binds an ephemeral port and writes ``host:port`` to a port
file once it is accepting connections; :class:`DaemonProcess` spawns
``python -m repro.daemon serve``, waits for that file, and guarantees
teardown (SIGTERM drain first, SIGKILL as the backstop) however the
using test exits.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

READY_TIMEOUT_SECONDS = 120.0  # first start builds the dictionary


class DaemonStartError(RuntimeError):
    """The daemon subprocess died or never became ready."""


class DaemonProcess:
    """Context manager around one ``repro.daemon serve`` subprocess."""

    def __init__(
        self,
        cache_dir: str | None = None,
        jobs: int = 2,
        extra_args: list[str] | None = None,
        env: dict | None = None,
    ) -> None:
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.extra_args = list(extra_args or [])
        self.env_overrides = dict(env or {})
        self.proc: subprocess.Popen | None = None
        self.addr: str | None = None
        self._port_file: Path | None = None

    # ------------------------------------------------------------------

    def start(self) -> str:
        """Spawn and wait until accepting; returns ``host:port``."""
        fd, port_file = tempfile.mkstemp(prefix="repro-daemon-", suffix=".port")
        os.close(fd)
        os.unlink(port_file)  # daemon creates it when ready
        self._port_file = Path(port_file)
        argv = [
            sys.executable, "-m", "repro.daemon", "serve",
            "--port", "0", "--port-file", port_file,
            "--jobs", str(self.jobs),
        ]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        argv += self.extra_args
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        if src_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        env.update(self.env_overrides)
        self.proc = subprocess.Popen(argv, env=env)
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise DaemonStartError(
                    f"daemon exited with code {self.proc.returncode} "
                    "before becoming ready"
                )
            if self._port_file.exists():
                addr = self._port_file.read_text().strip()
                if addr:
                    self.addr = addr
                    return addr
            # The port file appears the moment the daemon listens; a
            # coarse poll would add half its period to every start.
            time.sleep(0.005)
        self.stop(timeout=5.0)
        raise DaemonStartError(
            f"daemon not ready within {READY_TIMEOUT_SECONDS}s"
        )

    def send_sigterm(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout: float = 60.0) -> int:
        assert self.proc is not None
        return self.proc.wait(timeout=timeout)

    def stop(self, timeout: float = 30.0) -> int | None:
        """SIGTERM (graceful drain), escalating to SIGKILL on overrun."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.send_sigterm()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        if self._port_file is not None and self._port_file.exists():
            try:
                self._port_file.unlink()
            except OSError:
                pass
        return self.proc.returncode

    # ------------------------------------------------------------------

    def __enter__(self) -> "DaemonProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
