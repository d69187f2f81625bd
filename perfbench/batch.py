"""`repro all` as a child process: the serve fixture, cold and warm runs."""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import SRC, WORK

#: Flags every run shares (output dir, scale and cache flags are added).
RUN_ARGS = ("--workers", "2", "--compile-store")

#: Scale of the serve fixture and of the warm reruns against its cache.
FIXTURE_SCALE = "small"

#: Scale of the timed cold runs: a small-scale cold run takes ~16 s, too
#: long to repeat within a run, and one sample of it spread 13-29% of its
#: median between runs on a shared 2-CPU host.
COLD_SCALE = "tiny"

#: Per-run ceiling; a cold small-scale run takes about 20 s.
RUN_TIMEOUT_S = 150.0


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, by relative name."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def reference_digests(scale: str) -> Path:
    """Artifact digests of the first run at ``scale`` in this checkout;
    every later run at that scale, timed or traced, must reproduce them."""
    return WORK / f"reference_digests.{scale}.json"


@dataclass(frozen=True)
class Fixture:
    """A finished small-scale run with a compiled store, and its cache."""

    run_dir: Path
    cache: Path
    built_s: float | None  # wall time if this invocation built it


class BatchRuns:
    """`repro all` runs at one scale, digest-checked.

    ``reference`` keeps the first digest set seen in this checkout, so
    every run, here or in a later invocation, is checked against it.
    ``rss_mb`` holds each timed (cold or warm) run's peak resident set,
    pool workers included.
    """

    def __init__(self, env: dict, work: Path, reference: Path, scale: str = FIXTURE_SCALE) -> None:
        self.env = env
        self.work = work
        self.scale = scale
        self.reference = reference
        self.expected: dict[str, str] | None = (
            json.loads(reference.read_text()) if reference.is_file() else None
        )
        self.checked = 0
        self.mismatches: list[str] = []
        self.rss_mb: list[float] = []
        self.last_rss_mb = 0.0

    def run(self, out: Path, cache: Path) -> float:
        """Wall time of `repro all` into ``out`` against ``cache``."""
        journal = self.work / "journal"
        shutil.rmtree(journal, ignore_errors=True)
        command = [
            sys.executable, "-m", "repro", "all", str(out), "--scale", self.scale, *RUN_ARGS,
            "--cache-dir", str(cache), "--journal-dir", str(journal),
        ]
        log = self.work / "batch.log"
        with log.open("ab") as sink:
            started = time.perf_counter()
            proc = subprocess.Popen(command, env=self.env, stdout=sink, stderr=subprocess.STDOUT)
            status, rss_mb = _wait(proc)
            wall = time.perf_counter() - started
        if status != 0:
            raise RuntimeError(f"repro all exited with {status}; see {log}")
        self.last_rss_mb = rss_mb
        self.check(out)
        return wall

    def check(self, out: Path) -> None:
        """Compare every artifact under ``out`` with the reference."""
        digests = artifact_digests(out)
        if self.expected is None:
            self.expected = digests
            self.reference.write_text(json.dumps(digests, indent=1, sort_keys=True))
        names = set(digests) | set(self.expected)
        self.checked += len(names)
        self.mismatches += [f"{out.name}/{n}" for n in sorted(names) if digests.get(n) != self.expected.get(n)]

    def cold(self) -> float:
        """Wall time of a run into an empty cache and output dir."""
        out, cache = self.work / "cold", self.work / "cold-cache"
        for path in (out, cache):
            shutil.rmtree(path, ignore_errors=True)
        # Flush dirty pages outside the timed region: writeback of the
        # previous run's files otherwise lands in the middle of this one.
        os.sync()
        return self._timed(out, cache)

    def warm(self, fixture: Fixture) -> float:
        """Wall time of a rerun into a fresh output dir, against the
        fixture's warm cache."""
        out = self.work / "warm"
        shutil.rmtree(out, ignore_errors=True)
        os.sync()
        return self._timed(out, fixture.cache)

    def _timed(self, out: Path, cache: Path) -> float:
        wall = self.run(out, cache)
        self.rss_mb.append(self.last_rss_mb)
        return wall


def _wait(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap ``proc``: its exit code and peak RSS (MB).

    ``wait4`` reports the child's high-water mark together with that of
    every descendant it reaped, so the CLI's pool workers count too.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, __, __ = select.select([fd], [], [], RUN_TIMEOUT_S)
        if not ready:
            raise RuntimeError(f"repro all ran past {RUN_TIMEOUT_S:.0f} s")
        __, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def source_digest() -> str:
    """sha256 over this checkout's `repro` sources and the run flags."""
    hasher = hashlib.sha256(repr((FIXTURE_SCALE, RUN_ARGS)).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return hasher.hexdigest()[:16]


def ensure_fixture(env: dict, work: Path) -> tuple[Fixture, BatchRuns]:
    """The serve fixture, built on first use and kept under ``.work``.

    It depends only on the source tree, so later invocations in the same
    checkout reuse it; a changed tree builds a new one and drops the old.
    Its build is not timed as a metric.
    """
    root = WORK / "fixture"
    home = root / source_digest()
    runs = BatchRuns(env, work, reference_digests(FIXTURE_SCALE))
    built_s = None
    if not (home / "done").is_file():
        # Older trees' fixtures, or this one's, cut short.
        shutil.rmtree(root, ignore_errors=True)
        built_s = runs.run(home / "cold", home / "cache")
        (home / "done").write_text("")
    else:
        runs.check(home / "cold")
    return Fixture(home / "cold", home / "cache", built_s), runs
