"""repro.serve.reload: manifest watching, atomic epoch swaps, chaos."""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro.perf import ArtifactCache, configure_cache
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.runall import write_manifest
from repro.resilience import ENV_FAULTS, clear_plan_cache
from repro.serve import (
    ManifestWatcher,
    ServeApp,
    ServeSettings,
    ShardPlan,
    ShardedServer,
    build_index,
    load_manifest,
)
from repro.store import manifest_identity


@pytest.fixture(autouse=True)
def no_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


def write_run(root, seed: int):
    """A run directory whose manifest is trimmed to one pair, one site."""
    config = ExperimentConfig(scale="tiny", seed=seed).scaled_down(400)
    path = write_manifest(root, config, ["table1.txt"])
    payload = json.loads(path.read_text())
    payload["spread_pairs"] = [["restaurants", "phone"]]
    payload["traffic_sites"] = ["imdb"]
    path.write_text(json.dumps(payload))
    return path


def bump_mtime(path, seconds: float = 10.0) -> None:
    """Force a visible mtime change regardless of filesystem granularity."""
    stamp = os.stat(path).st_mtime + seconds
    os.utime(path, (stamp, stamp))


@pytest.fixture()
def run_dir(tmp_path):
    write_run(tmp_path, seed=0)
    return tmp_path


def make_app(run_dir) -> ServeApp:
    index = build_index(load_manifest(run_dir))
    return ServeApp(index, ServeSettings(response_cache_entries=8))


def test_manifest_identity_matches_built_index(run_dir):
    manifest = load_manifest(run_dir)
    assert manifest_identity(manifest) == build_index(manifest).identity


def test_watcher_swaps_on_real_manifest_change(run_dir):
    app = make_app(run_dir)
    try:
        watcher = ManifestWatcher(run_dir, app, poll_seconds=60.0)
        old_identity = app.index.identity
        assert app.handle("/healthz")[1]  # warm the response cache
        path = write_run(run_dir, seed=1)
        bump_mtime(path)
        assert watcher.check_once() is True
        assert watcher.reloads == 1
        assert watcher.last_error is None
        assert app.index.identity != old_identity
        payload = json.loads(app.handle("/healthz")[1])
        assert payload["seed"] == 1  # the epoch (and its caches) moved
        metrics = json.loads(app.handle("/metrics")[1])
        assert metrics["index_swaps"] == 1
        assert metrics["index_fingerprint"] == app.index.identity
    finally:
        app.close()


def test_equivalent_rewrite_is_recorded_not_swapped(run_dir):
    app = make_app(run_dir)
    try:
        watcher = ManifestWatcher(run_dir, app, poll_seconds=60.0)
        identity = app.index.identity
        path = write_run(run_dir, seed=0)  # same config, new bytes
        bump_mtime(path)
        assert watcher.check_once() is False
        assert watcher.reloads == 0
        assert app.index.identity == identity
        # The new mtime was memorized: the next poll is a cheap no-op.
        assert watcher.check_once() is False
        assert watcher.checks == 2
    finally:
        app.close()


def test_unchanged_mtime_short_circuits(run_dir):
    app = make_app(run_dir)
    try:
        watcher = ManifestWatcher(run_dir, app, poll_seconds=60.0)
        assert watcher.check_once() is False
        assert watcher.last_error is None
    finally:
        app.close()


def test_torn_manifest_keeps_old_epoch_then_recovers(run_dir):
    app = make_app(run_dir)
    try:
        watcher = ManifestWatcher(run_dir, app, poll_seconds=60.0)
        identity = app.index.identity
        manifest_file = watcher.path
        manifest_file.write_text('{"half": "written')  # mid-publish read
        bump_mtime(manifest_file)
        assert watcher.check_once() is False
        assert watcher.last_error is not None
        assert app.index.identity == identity  # stale beats dead
        path = write_run(run_dir, seed=2)
        bump_mtime(path, seconds=20.0)
        assert watcher.check_once() is True
        assert watcher.last_error is None
        assert json.loads(app.handle("/healthz")[1])["seed"] == 2
    finally:
        app.close()


def test_watcher_rejects_bad_poll(run_dir):
    app = make_app(run_dir)
    try:
        with pytest.raises(ValueError, match="poll_seconds"):
            ManifestWatcher(run_dir, app, poll_seconds=0.0)
    finally:
        app.close()


def test_watcher_thread_lifecycle(run_dir):
    app = make_app(run_dir)
    try:
        watcher = ManifestWatcher(run_dir, app, poll_seconds=0.05).start()
        assert watcher.start() is watcher  # idempotent
        deadline = time.monotonic() + 5.0  # reprolint: disable=RNG004
        while watcher.checks == 0 and time.monotonic() < deadline:  # reprolint: disable=RNG004
            time.sleep(0.01)
        watcher.stop()
        assert watcher.checks >= 1
    finally:
        app.close()


def test_stalled_rebuild_never_tears_responses(run_dir, tmp_path, monkeypatch):
    """Chaos: a slow (op=stall) rebuild must never produce mixed bytes.

    While the watcher rebuilds the new epoch through a wedged artifact
    cache, concurrent requests keep being answered — every response
    must be byte-identical to either the old epoch's answer or the new
    epoch's answer, never an interleaving of the two.  This is the
    epoch design's whole point: a request captures one epoch reference
    and computes entirely inside it.
    """
    previous = configure_cache(
        ArtifactCache(directory=tmp_path / "chaos-cache")
    )
    try:
        app = make_app(run_dir)
        watcher = ManifestWatcher(run_dir, app, poll_seconds=60.0)
        status_a, body_a = app.handle("/healthz")
        assert status_a == 200

        path = write_run(run_dir, seed=3)
        bump_mtime(path)
        # Wedge every cache read/publish the rebuild performs.
        monkeypatch.setenv(ENV_FAULTS, "op=stall,key=*,seconds=0.2")
        clear_plan_cache()

        stop = threading.Event()
        observed: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def hammer() -> None:
            while not stop.is_set():
                result = app.handle("/healthz")
                with lock:
                    observed.append(result)

        threads = [threading.Thread(target=hammer) for __ in range(3)]
        for thread in threads:
            thread.start()
        swapped = watcher.check_once()  # blocks on the stalled rebuild
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

        assert swapped is True
        status_b, body_b = app.handle("/healthz")
        assert status_b == 200
        assert body_b != body_a  # genuinely a different epoch
        assert json.loads(body_b)["seed"] == 3
        assert observed, "the hammer threads never got a request through"
        assert all(status == 200 for status, __ in observed)
        torn = [body for __, body in observed if body not in (body_a, body_b)]
        assert torn == []
        app.close()
    finally:
        configure_cache(previous)


def test_sharded_workers_hot_reload_from_manifest(run_dir):
    """End to end: forked workers notice the rewrite and swap epochs."""
    server = ShardedServer(
        index=build_index(load_manifest(run_dir)),
        manifest_path=run_dir,
        settings=ServeSettings(host="127.0.0.1", port=0),
        plan=ShardPlan(workers=2, reload_poll_seconds=0.1),
    )
    host, port = server.start()

    def healthz_seed() -> int:
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            return json.loads(connection.getresponse().read())["seed"]
        finally:
            connection.close()

    try:
        assert healthz_seed() == 0
        path = write_run(run_dir, seed=4)
        bump_mtime(path)
        deadline = time.monotonic() + 20.0  # reprolint: disable=RNG004
        # Round-robin dispatch: two consecutive fresh connections land
        # on the two workers, so both must have swapped to pass.
        while time.monotonic() < deadline:  # reprolint: disable=RNG004
            if healthz_seed() == 4 and healthz_seed() == 4:
                break
            time.sleep(0.1)
        else:
            pytest.fail("workers never swapped to the rewritten manifest")
    finally:
        server.stop()
