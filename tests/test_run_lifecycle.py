"""``repro all`` leaves no pool worker behind, however it is stopped.

The run's pool workers (and the store compile's) watch their parent's
sentinel and exit once it is gone; SIGTERM on ``repro all`` takes
Ctrl-C's path and exits 130.  Each case starts a cold ``--workers 2``
run, waits until both workers exist, signals the ``repro all`` process
and polls until every worker pid is gone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.processes import (
    LIFECYCLE_BOUND_S,
    children,
    eventually,
    exited,
    needs_proc,
)


@needs_proc
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="repro all clamps --workers to the CPU count: one CPU runs inline",
)
@pytest.mark.parametrize(
    ("signum", "returncode"),
    [(signal.SIGTERM, 130), (signal.SIGKILL, -signal.SIGKILL)],
    ids=["sigterm", "sigkill"],
)
def test_stopped_run_leaves_no_pool_worker(tmp_path, signum, returncode):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    # stderr goes to a file: orphaned workers would hold a pipe open.
    with (tmp_path / "stderr.txt").open("w") as stderr:
        run = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "all", str(tmp_path / "out"),
                "--scale", "tiny", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--journal-dir", str(tmp_path / "journal"),
            ],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=env,
        )
    workers = []
    try:
        assert eventually(
            lambda: len(children(run.pid)) >= 2 or run.poll() is not None
        )
        workers = children(run.pid)
        assert run.poll() is None and len(workers) == 2, workers
        run.send_signal(signum)
        assert run.wait(timeout=LIFECYCLE_BOUND_S) == returncode, (
            (tmp_path / "stderr.txt").read_text()
        )
        assert eventually(lambda: all(exited(pid) for pid in workers))
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        for pid in workers:  # a failing run must not leak them
            if not exited(pid):
                os.kill(pid, signal.SIGKILL)
    if signum == signal.SIGTERM:
        assert "interrupted" in (tmp_path / "stderr.txt").read_text()
