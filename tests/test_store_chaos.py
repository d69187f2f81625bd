"""Chaos: faults against the compiled store during hot reload must
never tear a response — the old epoch keeps serving, byte-identical."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.perf import ArtifactCache, configure_cache
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.runall import write_manifest
from repro.resilience import ENV_FAULTS, clear_plan_cache
from repro.serve import (
    ManifestWatcher,
    ServeApp,
    ServeSettings,
    build_index,
    load_manifest,
)

PROBES = (
    "/healthz",
    "/v1/coverage/restaurants?k=1&t=2",
    "/v1/entity/restaurants/0/sites",
    "/v1/setcover/restaurants?budget=3",
)


@pytest.fixture(autouse=True)
def no_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


def write_run(root, seed: int):
    """A run directory trimmed to one pair, one traffic site."""
    config = ExperimentConfig(scale="tiny", seed=seed).scaled_down(400)
    path = write_manifest(root, config, ["table1.txt"])
    payload = json.loads(path.read_text())
    payload["spread_pairs"] = [["restaurants", "phone"]]
    payload["traffic_sites"] = ["imdb"]
    path.write_text(json.dumps(payload))
    return path


def bump_mtime(path, seconds: float = 10.0) -> None:
    stamp = os.stat(path).st_mtime + seconds
    os.utime(path, (stamp, stamp))


def mmap_builder(manifest):
    """The builder the CLI binds for ``--backend mmap``."""
    return build_index(manifest, backend="mmap")


def ram_builder(manifest):
    """The builder the CLI binds for ``--backend ram``."""
    return build_index(manifest, backend="ram")


@pytest.fixture()
def chaos_env(tmp_path, request):
    """An app + watcher over its own artifact cache (mmap-backed
    unless the test parametrizes the builder)."""
    builder = getattr(request, "param", mmap_builder)
    previous = configure_cache(
        ArtifactCache(directory=tmp_path / "cache")
    )
    run = tmp_path / "run"
    run.mkdir()
    manifest_path = write_run(run, seed=0)
    app = ServeApp(
        builder(load_manifest(run)),
        ServeSettings(response_cache_entries=0),
    )
    watcher = ManifestWatcher(run, app, 30.0, builder=builder)
    try:
        yield run, manifest_path, app, watcher
    finally:
        app.close()
        configure_cache(previous)


@pytest.mark.parametrize(
    "chaos_env", [ram_builder, mmap_builder], ids=["ram", "mmap"], indirect=True
)
def test_corrupted_store_compile_keeps_the_old_epoch(
    chaos_env, monkeypatch
):
    """Both tiers that reload through the store's digest read-back: a
    corrupted compile must fail the reload, not swap in torn data."""
    run, manifest_path, app, watcher = chaos_env
    before = {path: app.handle(path) for path in PROBES}
    old_identity = app.index.identity
    tier = app.index.backend

    # A genuinely different run arrives, but every blob published during
    # the rebuild is corrupted on disk.
    write_run(run, seed=1)
    bump_mtime(manifest_path)
    monkeypatch.setenv(ENV_FAULTS, "op=corrupt,key=*")
    clear_plan_cache()
    assert watcher.check_once() is False
    assert watcher.last_error is not None
    assert app.index.identity == old_identity
    for path, expected in before.items():
        assert app.handle(path) == expected

    # Faults clear; the next poll retries and swaps cleanly.
    monkeypatch.delenv(ENV_FAULTS)
    clear_plan_cache()
    bump_mtime(manifest_path, seconds=20.0)
    assert watcher.check_once() is True
    assert watcher.last_error is None
    assert app.index.identity != old_identity
    assert app.index.backend == tier
    status, __ = app.handle("/healthz")
    assert status == 200


def test_stalled_store_rebuild_never_tears_responses(
    chaos_env, monkeypatch
):
    """Requests during a stalled mmap rebuild see exactly the old or
    the new epoch's bytes — never a mixture, never an error."""
    run, manifest_path, app, watcher = chaos_env
    old = {path: app.handle(path) for path in PROBES}

    write_run(run, seed=1)
    bump_mtime(manifest_path)
    monkeypatch.setenv(ENV_FAULTS, "op=stall,key=*,seconds=0.05")
    clear_plan_cache()

    stop = threading.Event()
    torn: list[tuple[str, object]] = []
    new: dict[str, object] = {}

    def hammer() -> None:
        while not stop.is_set():
            for path in PROBES:
                result = app.handle(path)
                if result == old[path]:
                    continue
                # Anything that is not the old epoch's bytes must be the
                # new epoch's — one value per path, statuses all 200.
                if path not in new:
                    new[path] = result
                if result != new[path] or result[0] != 200:
                    torn.append((path, result))

    thread = threading.Thread(target=hammer)
    thread.start()
    try:
        swapped = watcher.check_once()
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert swapped is True
    assert torn == []
    assert watcher.last_error is None
    assert app.index.backend == "mmap"
    # The swapped epoch serves the new run's bytes from here on.
    settled = {path: app.handle(path) for path in PROBES}
    assert settled["/healthz"] != old["/healthz"]
    for path, result in settled.items():
        assert result[0] == 200
        assert app.handle(path) == result
