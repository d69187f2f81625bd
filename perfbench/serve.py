"""`repro serve` as a child process: spawn, time its set-up, load it, check it."""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import loadgen

#: A server that has not answered `/healthz` by then has failed to start.
BOOT_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One `repro serve` process over a finished run directory."""

    def __init__(self, env: dict, run_dir: Path, cache_dir: Path, backend: str, log: Path) -> None:
        self.port = free_port()
        self.log = log.open("ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(run_dir),
                "--backend", backend, "--port", str(self.port),
                "--cache-dir", str(cache_dir),
            ],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.summary = self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self) -> dict:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                status, body = loadgen.fetch(self.port, "/healthz")
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200:
                return json.loads(body)
        raise RuntimeError("repro serve did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the server, wait for it, kill it if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
