"""Concurrency stress test for the serve tier's MicroBatcher.

The batcher is the serve tier's single-flight layer: all of its state
(``_inflight``, ``_launched``, ``_coalesced``) is guarded by one lock,
and the CONC001 analysis in reprolint checks that discipline statically.
This test checks it dynamically: many threads hammering a small key
space with a seeded schedule must never observe torn accounting.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher

THREADS = 8
SUBMITS_PER_THREAD = 200
KEYS = [f"key-{n}" for n in range(5)]


def test_seeded_multithread_stress():
    batcher = MicroBatcher()
    stats_snapshots = []
    results = []
    results_lock = threading.Lock()
    start = threading.Barrier(THREADS)

    def compute(key):
        def run():
            # Long enough that concurrent submits for the same key
            # really do land while the leader is in flight.
            time.sleep(0.0005)
            return ("result", key)

        return run

    def hammer(thread_index):
        rng = np.random.default_rng(1000 + thread_index)
        start.wait()
        mine = []
        for _ in range(SUBMITS_PER_THREAD):
            key = KEYS[int(rng.integers(len(KEYS)))]
            mine.append((key, batcher.submit(key, compute(key))))
            if rng.random() < 0.1:
                stats_snapshots.append(batcher.stats())
        with results_lock:
            results.extend(mine)

    workers = [
        threading.Thread(target=hammer, args=(index,), daemon=True)
        for index in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    # Every caller, leader or follower, got its own key's result.
    assert all(result == ("result", key) for key, result in results)

    final = batcher.stats()
    total = THREADS * SUBMITS_PER_THREAD
    assert len(results) == total
    # Accounting is conserved: every submit either launched or coalesced.
    assert final["launched"] + final["coalesced"] == total
    # With 1600 submits over 5 keys there must have been real sharing,
    # and at least one launch per key.
    assert final["launched"] >= len(KEYS)
    assert final["coalesced"] > 0
    # All work drained: nothing left in flight once every call returned.
    assert final["inflight"] == 0
    # No snapshot ever saw torn state: inflight bounded by the key
    # space, counters monotone and never negative.
    assert all(0 <= snap["inflight"] <= len(KEYS) for snap in stats_snapshots)
    assert all(snap["launched"] >= 0 for snap in stats_snapshots)
    assert all(snap["coalesced"] >= 0 for snap in stats_snapshots)


def _wait_until(predicate, seconds=30.0):
    for __ in range(int(seconds / 0.01)):
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached")


def test_failed_query_settles_and_deregisters():
    batcher = MicroBatcher()
    release = threading.Event()
    errors = []

    def boom():
        release.wait(timeout=30)
        raise RuntimeError("query failed")

    def call():
        try:
            batcher.submit("k", boom)
        except RuntimeError as exc:
            errors.append(exc)

    # A follower coalesced onto a failing run gets the leader's error.
    leader = threading.Thread(target=call, daemon=True)
    follower = threading.Thread(target=call, daemon=True)
    leader.start()
    _wait_until(lambda: batcher.stats()["inflight"] == 1)
    follower.start()
    _wait_until(lambda: batcher.stats()["coalesced"] == 1)
    release.set()
    leader.join(timeout=30)
    follower.join(timeout=30)
    assert not leader.is_alive() and not follower.is_alive()
    assert [str(exc) for exc in errors] == ["query failed"] * 2
    # The failed flight must not wedge the key: it deregisters, and a
    # retry launches fresh rather than sharing the dead run.
    assert batcher.stats() == {"launched": 1, "coalesced": 1, "inflight": 0}
    with pytest.raises(RuntimeError, match="query failed"):
        batcher.submit("k", boom)
    assert batcher.submit("k", lambda: 42) == 42
    assert batcher.stats()["launched"] == 3
