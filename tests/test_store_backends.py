"""repro.store: tiered backends must be byte-identical behind the serve
contract — same endpoints, same bodies, same errors, same cursors.

Every tier is diffed against an independent reference built straight
from the pipeline's incidence (``tests/reference_index.py``), since the
tiers share one compiled store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.perf import ArtifactCache, configure_cache
from repro.pipeline.config import ExperimentConfig
from repro.resilience import ENV_FAULTS, clear_plan_cache
from repro.serve import ServeApp, ServeSettings, build_index
from repro.store import (
    BACKENDS,
    Manifest,
    build_store,
    choose_backend,
    manifest_identity,
    open_backend,
    store_blob_key,
)
from repro.store.compile import PAIR_ID_MEMBERS, PAIR_MEMBERS
from tests.reference_index import reference_index

CONFIG = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)
MANIFEST = Manifest(
    config=CONFIG,
    spread_pairs=(("restaurants", "phone"),),
    traffic_sites=("imdb",),
    artifacts=(),
)
TIERS = ("ram", "mmap")


@pytest.fixture(autouse=True)
def no_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(scope="module")
def apps(tmp_path_factory):
    """One ServeApp per tier plus the reference, sharing a module-scoped
    artifact cache."""
    cache_dir = tmp_path_factory.mktemp("store-cache")
    previous = configure_cache(ArtifactCache(directory=cache_dir))
    built = {}
    try:
        built["reference"] = ServeApp(
            reference_index(MANIFEST), ServeSettings(response_cache_entries=0)
        )
        for tier in TIERS:
            built[tier] = ServeApp(
                build_index(MANIFEST, backend=tier),
                ServeSettings(response_cache_entries=0),
            )
        yield built
    finally:
        for app in built.values():
            app.close()
        configure_cache(previous)


def everywhere(apps, path):
    """One request against every tier; asserts byte-identity with the
    reference, returns its answer."""
    baseline = apps["reference"].handle(path)
    results = {tier: apps[tier].handle(path) for tier in TIERS}
    for tier, result in results.items():
        assert result == baseline, (path, tier, result, baseline)
    return baseline


# ------------------------------------------------------------- identity


def test_all_tiers_share_the_manifest_identity(apps):
    identity = manifest_identity(MANIFEST)
    for tier in TIERS:
        assert apps[tier].index.identity == identity
        assert apps[tier].index.backend == tier


def test_summaries_are_byte_identical(apps):
    payloads = {
        tier: json.dumps(apps[tier].index.summary(), sort_keys=True)
        for tier in (*TIERS, "reference")
    }
    assert len(set(payloads.values())) == 1
    # The healthz payload must not leak which tier answered.
    assert "backend" not in apps["mmap"].index.summary()


def test_metrics_reports_the_backend(apps):
    for tier in TIERS:
        __, body = apps[tier].handle("/metrics")
        assert json.loads(body)["backend"] == tier


# ---------------------------------------------------- endpoint sweeps


def test_probe_paths_are_byte_identical(apps):
    pair = apps["reference"].index.pairs[("restaurants", "phone")]
    host = pair.top_hosts[0]
    probes = [
        "/healthz",
        "/v1/entity/restaurants/0/sites",
        "/v1/entity/restaurants/999999/sites",
        "/v1/entity/restaurants/nosuch/sites",
        "/v1/entity/nosuch/0/sites",
        f"/v1/site/{host}/entities",
        f"/v1/site/{host}/entities?limit=2",
        "/v1/site/nosuch.example/entities",
        "/v1/coverage/restaurants?k=1&t=2",
        "/v1/coverage/restaurants?k=999&t=2",
        "/v1/coverage/restaurants?k=1&t=0",
        "/v1/coverage/restaurants?k=1&t=999999",
        "/v1/coverage/restaurants?k=zap&t=2",
        "/v1/coverage/nosuch?k=1&t=1",
        "/v1/demand/imdb?reviews=3",
        "/v1/demand/imdb?reviews=3&source=browse",
        "/v1/demand/imdb?reviews=3&source=nosuch",
        "/v1/demand/nosuch?reviews=3",
        "/v1/setcover/restaurants?budget=5",
        "/v1/setcover/restaurants?budget=0",
        "/v1/setcover/restaurants?budget=1",
        "/v1/nosuchendpoint",
    ]
    for path in probes:
        everywhere(apps, path)


def test_exhaustive_entity_and_site_sweep(apps):
    pair = apps["reference"].index.pairs[("restaurants", "phone")]
    for entity in range(pair.n_entities):
        label = pair.entity_label(entity)
        everywhere(apps, f"/v1/entity/restaurants/{entity}/sites")
        everywhere(apps, f"/v1/entity/restaurants/{label}/sites")
    for site in range(pair.n_sites):
        host = pair.site_host(site)
        everywhere(apps, f"/v1/site/{host}/entities?limit=50")


def test_coverage_grid_is_byte_identical(apps):
    pair = apps["reference"].index.pairs[("restaurants", "phone")]
    for k in range(0, max(pair.coverage_ks) + 2):
        for t in (0, 1, 2, 5, pair.n_sites, pair.n_sites + 1):
            everywhere(apps, f"/v1/coverage/restaurants?k={k}&t={t}")


def seeded_stream(pair, seed: int = 1729, count: int = 400):
    """A seeded mixed-endpoint request stream over one pair's shape."""
    hosts = list(pair.top_hosts) + ["unknown.example"]
    sources = ["search", "browse", "bogus"]
    rng = np.random.default_rng(seed)
    for __ in range(count):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            entity = int(rng.integers(0, pair.n_entities + 3))
            yield f"/v1/entity/restaurants/{entity}/sites"
        elif kind == 1:
            host = hosts[int(rng.integers(0, len(hosts)))]
            limit = int(rng.integers(1, 8))
            yield f"/v1/site/{host}/entities?limit={limit}"
        elif kind == 2:
            k = int(rng.integers(0, 14))
            t = int(rng.integers(0, pair.n_sites + 2))
            yield f"/v1/coverage/restaurants?k={k}&t={t}"
        elif kind == 3:
            reviews = int(rng.integers(0, 40))
            source = sources[int(rng.integers(0, len(sources)))]
            yield f"/v1/demand/imdb?reviews={reviews}&source={source}"
        else:
            budget = int(rng.integers(0, 12))
            yield f"/v1/setcover/restaurants?budget={budget}"


def test_seeded_request_stream_is_byte_identical(apps):
    """A seeded mixed-endpoint stream: the differential property test."""
    pair = apps["reference"].index.pairs[("restaurants", "phone")]
    for path in seeded_stream(pair):
        everywhere(apps, path)


def test_uncached_ram_index_matches_the_cached_one(apps):
    """Without a cache the ram tier compiles the same packed arrays in
    memory, publishes nothing, and answers byte for byte the same."""
    previous = configure_cache(None)
    try:
        uncached = ServeApp(
            build_index(MANIFEST, backend="ram"),
            ServeSettings(response_cache_entries=0),
        )
    finally:
        configure_cache(previous)
    try:
        cached_pair = apps["ram"].index.pairs[("restaurants", "phone")]
        uncached_pair = uncached.index.pairs[("restaurants", "phone")]
        for name in PAIR_MEMBERS + PAIR_ID_MEMBERS:
            cached, fresh = getattr(cached_pair, name), getattr(uncached_pair, name)
            if cached is None:
                assert fresh is None, name
                continue
            assert cached.dtype == fresh.dtype, name
            assert np.array_equal(cached, fresh), name
        assert uncached.index.summary() == apps["ram"].index.summary()
        for path in seeded_stream(cached_pair):
            assert uncached.handle(path) == apps["ram"].handle(path), path
    finally:
        uncached.close()


def test_pagination_cursor_chains_match(apps):
    """Walk the full cursor chain per tier; every page byte-identical."""
    pair = apps["reference"].index.pairs[("restaurants", "phone")]
    ranked = pair.incidence.sites_by_size()
    host = pair.site_host(int(ranked[0]))  # the largest site: most pages
    path = f"/v1/site/{host}/entities?limit=2"
    pages = 0
    while path is not None:
        status, body = everywhere(apps, path)
        assert status == 200
        payload = json.loads(body)
        cursor = payload.get("next_cursor")
        path = (
            f"/v1/site/{host}/entities?limit=2&cursor={cursor}"
            if cursor
            else None
        )
        pages += 1
        assert pages < 10_000
    assert pages > 1
    everywhere(apps, f"/v1/site/{host}/entities?limit=2&cursor=garbage")
    everywhere(apps, f"/v1/site/{host}/entities?limit=0")
    everywhere(apps, f"/v1/site/{host}/entities?limit=bogus")


# -------------------------------------------------------- compilation


def test_choose_backend_scales_with_manifest_size():
    assert choose_backend(MANIFEST) == "ram"
    paper = ExperimentConfig(scale="paper", seed=0)
    mid = Manifest(
        config=paper,
        spread_pairs=(("restaurants", "phone"), ("coffee", "menu")),
        traffic_sites=(),
        artifacts=(),
    )
    assert choose_backend(mid) == "mmap"
    huge = Manifest(
        config=paper,
        spread_pairs=tuple((f"domain{i}", "attr") for i in range(200)),
        traffic_sites=(),
        artifacts=(),
    )
    assert choose_backend(huge) == "mmap"


def test_backends_tuple_is_the_cli_contract():
    assert BACKENDS == ("auto", "ram", "mmap")


def test_build_store_requires_a_cache(tmp_path):
    previous = configure_cache(None)
    try:
        with pytest.raises(RuntimeError, match="artifact cache"):
            build_store(MANIFEST)
    finally:
        configure_cache(previous)


def test_build_store_is_idempotent_and_cache_warm(tmp_path):
    previous = configure_cache(ArtifactCache(directory=tmp_path / "cache"))
    try:
        cold = build_store(MANIFEST)
        warm = build_store(MANIFEST)
        assert cold.identity == warm.identity == manifest_identity(MANIFEST)
        assert cold.pair_blobs.keys() == warm.pair_blobs.keys()
        for pair, blobs in cold.pair_blobs.items():
            assert blobs == warm.pair_blobs[pair]
    finally:
        configure_cache(previous)


def test_ram_open_publishes_the_array_store_and_no_sqlite_image(tmp_path):
    cache = ArtifactCache(directory=tmp_path / "cache")
    previous = configure_cache(cache)
    try:
        index = build_index(MANIFEST, backend="ram")
    finally:
        configure_cache(previous)
    identity = manifest_identity(MANIFEST)
    assert index.backend == "ram"
    assert cache.get_records(store_blob_key(identity, "meta"))
    site_ptr = store_blob_key(identity, "pair/restaurants/phone/site_ptr")
    assert cache.get_file(site_ptr, ".npy") is not None
    assert not list(cache.directory.rglob("*.sqlite"))


def test_ram_over_a_bounded_cache_compiles_in_memory(apps, tmp_path):
    """A budget smaller than the store would evict its blobs mid-publish;
    the ram tier must still open, publish no store, and answer the same."""
    cache = ArtifactCache(directory=tmp_path / "cache", max_bytes=1)
    previous = configure_cache(cache)
    try:
        app = ServeApp(
            build_index(MANIFEST, backend="ram"),
            ServeSettings(response_cache_entries=0),
        )
    finally:
        configure_cache(previous)
    try:
        identity = manifest_identity(MANIFEST)
        assert cache.get_records(store_blob_key(identity, "meta")) is None
        pair = apps["reference"].index.pairs[("restaurants", "phone")]
        for path in seeded_stream(pair, count=100):
            assert app.handle(path) == apps["ram"].handle(path), path
    finally:
        app.close()


def test_ram_over_a_bounded_cache_opens_a_published_store(
    apps, tmp_path, monkeypatch
):
    """A bounded cache that already holds the published store is opened
    read-only: nothing is recompiled or published."""
    import repro.store.compile as store_compile

    directory = tmp_path / "cache"
    build_store(MANIFEST, cache=ArtifactCache(directory=directory))

    def recompile(manifest):
        raise AssertionError("the published store was compiled again")

    monkeypatch.setattr(store_compile, "materialize_store", recompile)
    cache = ArtifactCache(directory=directory, max_bytes=1)
    previous = configure_cache(cache)
    try:
        app = ServeApp(
            build_index(MANIFEST, backend="ram"),
            ServeSettings(response_cache_entries=0),
        )
    finally:
        configure_cache(previous)
    try:
        assert cache.stats.puts == 0
        pair = apps["reference"].index.pairs[("restaurants", "phone")]
        for path in seeded_stream(pair, count=100):
            assert app.handle(path) == apps["ram"].handle(path), path
    finally:
        app.close()


def test_store_blob_keys_are_stable():
    identity = manifest_identity(MANIFEST)
    key = store_blob_key(identity, "pair/restaurants/phone/site_ptr")
    assert key == store_blob_key(identity, "pair/restaurants/phone/site_ptr")
    assert key != store_blob_key(identity, "meta")


def test_open_backend_rejects_unknown_tier(tmp_path):
    previous = configure_cache(ArtifactCache(directory=tmp_path / "cache"))
    try:
        with pytest.raises(ValueError):
            open_backend(MANIFEST, "tape")
    finally:
        configure_cache(previous)
