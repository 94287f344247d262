"""Start and stop ``repro-service serve`` as a child process.

The untraced server is ``python -m repro.service.cli serve``, the same
entry point as the ``repro-service`` console script; the traced one is
``serve_traced.py``, which installs the span wrappers first and then
calls :func:`repro.service.cli.main`. Both bind an ephemeral port and
announce it on their first line of output.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceError, SimulationServiceClient

HERE = Path(__file__).resolve().parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class Server:
    """One running service process and what it took to start it."""

    def __init__(
        self,
        src: Path,
        store: Path,
        seed: int,
        spans_path: "Path | None" = None,
    ) -> None:
        """Launch the server; returns once ``/healthz`` answers."""
        args = [
            "serve",
            "--store", str(store),
            "--port", "0",
            "--seed", str(seed),
            "--workers", str(usable_cpus()),
            "--executor", "process",
            # Deployment setting: the offered load must not meet the
            # default 10 submits/s limiter.
            "--rate", "10000",
            "--burst", "10000",
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.service.cli", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path), *args]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.spans_path = spans_path
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.url = self._announced_url()
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _announced_url(self) -> str:
        line = self.process.stdout.readline()
        prefix = "repro-service listening on "
        if not line.startswith(prefix):
            raise RuntimeError(f"server did not start: {line!r}")
        return line[len(prefix):].strip()

    def _wait_healthy(self, start: float) -> None:
        client = SimulationServiceClient(self.url, retries=0, timeout_s=5.0)
        while True:
            try:
                client.health()
                return
            except ServiceError:
                if time.perf_counter() - start > START_TIMEOUT_S:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The server process's ``VmHWM`` [MB]."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
