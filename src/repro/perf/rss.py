"""Resident-memory accounting for benchmark reports.

The storage-tier benchmarks (``repro serve-bench``, the backend
ladder) compare tiers by *peak* resident set size: the mmap tier
exists to keep RSS bounded while the ram tier pays memory for
latency.  Linux keeps exactly the number we want — ``VmHWM`` in
``/proc/<pid>/status``, the high-water mark of the resident set over
the process lifetime — so a single read after the load run captures
the worst moment without sampling.

Fallback order: ``/proc`` (any pid), then ``resource.getrusage`` for
the calling process only (``ru_maxrss`` is kilobytes on Linux, bytes
on macOS).  Remote pids without a readable ``/proc`` entry report
``None`` rather than a guess.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from typing import Iterable

__all__ = ["peak_rss_mb", "rss_high_water_mb"]

_KB_PER_MB = 1024.0


def rss_high_water_mb(pid: int | None = None) -> float | None:
    """Peak RSS of ``pid`` (default: this process) in MB, or None.

    Reads ``VmHWM`` from ``/proc/<pid>/status`` where available; for
    the calling process falls back to ``getrusage`` elsewhere.  The
    value is rounded to 2 decimals — report material, not arithmetic.
    """
    target = "self" if pid is None else str(int(pid))
    try:
        text = Path(f"/proc/{target}/status").read_text()
    except OSError:
        return _fallback_rss_mb(pid)
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            kb = float(line.split()[1])
            return round(kb / _KB_PER_MB, 2)
    return _fallback_rss_mb(pid)


def _fallback_rss_mb(pid: int | None) -> float | None:
    """``getrusage`` peak RSS without ``/proc`` (self only)."""
    if pid is not None:
        # getrusage cannot observe an arbitrary other process.
        return None
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = _KB_PER_MB * 1024.0 if sys.platform == "darwin" else _KB_PER_MB
    return round(ru_maxrss / divisor, 2)


def peak_rss_mb(pids: Iterable[int | None]) -> float | None:
    """Highest per-process peak RSS in MB over ``pids``; None if unknown.

    The sharded server's memory story is per-worker (each worker maps
    the same blobs), so the ladder reports the *max* over workers, not
    the sum — the sum would charge shared mmap pages once per worker.
    """
    values = [rss_high_water_mb(pid) for pid in pids]
    known = [value for value in values if value is not None]
    return max(known) if known else None
