"""Micro-batching of concurrent identical queries (single-flight).

Read-only queries are classic thundering-herd targets: when a result
falls out of the response cache, every concurrent requester would
recompute it.
``MicroBatcher`` coalesces them — the first requester for a key becomes
the *leader* and runs the computation on its own thread (the thread
that reads its connection); everyone else arriving while it is in
flight waits for, and returns, that one run's result.

Correctness relies on queries being pure functions of the key (true for
every serve endpoint: indices are immutable), so sharing a result is
indistinguishable from recomputing it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import Future

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce concurrent identical computations onto one run."""

    def __init__(self) -> None:
        """Create a batcher with no in-flight work."""
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}  # guarded-by: _lock
        self._launched = 0  # guarded-by: _lock
        self._coalesced = 0  # guarded-by: _lock

    def submit(self, key: str, fn: Callable[[], object]) -> object:
        """Return ``fn()``, sharing one run among concurrent callers of ``key``.

        If an identical query is already in flight the call is
        *coalesced*: it waits for that run and returns its result (or
        raises its exception).  Otherwise the caller leads: it runs
        ``fn`` on its own thread and publishes the outcome to any
        followers.
        """
        with self._lock:
            shared = self._inflight.get(key)
            leads = shared is None
            if leads:
                shared = self._inflight[key] = Future()
                self._launched += 1
            else:
                self._coalesced += 1
        if not leads:
            return shared.result()
        # De-register *before* the outcome lands: followers wake the
        # instant it is set, and must not observe a finished query
        # still counted as in flight.  No successor entry can exist yet
        # (submits share this one until it is removed here), so
        # dropping by key is safe.  A failed run raises in every caller.
        try:
            result = fn()
        except BaseException as exc:
            self._discard(key)
            shared.set_exception(exc)
            raise
        self._discard(key)
        shared.set_result(result)
        return result

    def _discard(self, key: str) -> None:
        """Drop ``key`` from the in-flight table as its query finishes."""
        with self._lock:
            self._inflight.pop(key, None)

    def stats(self) -> dict[str, int]:
        """Return launch/coalesce counters and current in-flight size."""
        with self._lock:
            return {
                "launched": self._launched,
                "coalesced": self._coalesced,
                "inflight": len(self._inflight),
            }
