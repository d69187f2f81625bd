"""Process-state helpers for lifecycle tests (read from ``/proc``).

Each check polls for up to ``LIFECYCLE_BOUND_S``.  Workers were measured
gone within 0.2 s of their parent; the bound is generous so that the
verdict does not depend on host speed.
"""

from __future__ import annotations

import os
import time

import pytest

LIFECYCLE_BOUND_S = 30.0

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)


def eventually(check, interval=0.05):
    """Poll ``check`` for about LIFECYCLE_BOUND_S; True once it holds."""
    for __ in range(int(LIFECYCLE_BOUND_S / interval)):
        if check():
            return True
        time.sleep(interval)
    return check()


def proc_stat(pid):
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def exited(pid):
    """True once ``pid`` is gone or a zombie waiting to be reaped."""
    fields = proc_stat(pid)
    return fields is None or fields[0] == "Z"


def children(pid):
    """PIDs of the live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        fields = proc_stat(entry) if entry.isdigit() else None
        if fields is not None and fields[0] != "Z" and int(fields[1]) == pid:
            found.append(int(entry))
    return found
