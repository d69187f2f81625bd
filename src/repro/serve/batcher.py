"""Micro-batching of concurrent identical queries (single-flight).

Read-only queries are classic thundering-herd targets: when a result
falls out of the response cache, every concurrent requester would
recompute it.
``MicroBatcher`` coalesces them — the first requester for a key becomes
the *leader* and schedules the computation on the server's worker pool;
everyone else arriving while it is in flight shares the same
:class:`~concurrent.futures.Future`.  Each caller still applies its own
deadline via ``future.result(timeout=...)``, so coalescing never
extends a request past its budget.

Correctness relies on queries being pure functions of the key (true for
every serve endpoint: indices are immutable), so sharing a result is
indistinguishable from recomputing it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import Executor, Future

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce concurrent identical computations onto one future."""

    def __init__(self) -> None:
        """Create a batcher with no in-flight work."""
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}  # guarded-by: _lock
        self._launched = 0  # guarded-by: _lock
        self._coalesced = 0  # guarded-by: _lock

    def submit(self, key: str, executor: Executor, fn: Callable[[], object]) -> Future:
        """Return the shared future for ``key``, scheduling ``fn`` if absent.

        If an identical query is already in flight its future is
        returned (the call is *coalesced*); otherwise ``fn`` is
        submitted to ``executor`` and registered until it completes.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._coalesced += 1
                return existing

            def single_flight() -> object:
                # De-register *before* the future settles: waiters wake
                # the instant the result lands, and a done-callback
                # would race them — callers could observe a finished
                # query still counted as in flight.  No successor entry
                # can exist yet (submits reuse this one until it is
                # removed here), so dropping by key is safe.
                try:
                    return fn()
                finally:
                    self._discard(key)

            future: Future = executor.submit(single_flight)
            self._inflight[key] = future
            self._launched += 1
        return future

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
