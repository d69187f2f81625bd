"""repro.store: tiered backends must be byte-identical behind the serve
contract — same endpoints, same bodies, same errors, same cursors.

Every tier is diffed against an independent reference built straight
from the pipeline's incidence (``tests/reference_index.py``), since the
tiers share one compiled store."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.perf import ArtifactCache, active_cache, configure_cache
from repro.perf.cache import QUARANTINE_DIR
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


def test_ram_pairs_hold_the_published_dtypes(apps):
    """The ram tier loads each blob as published: the dtypes the mmap
    tier maps, with every index array packed to int32."""
    ram = apps["ram"].index.pairs[("restaurants", "phone")]
    mapped = apps["mmap"].index.pairs[("restaurants", "phone")]
    packed = set()
    for name in PAIR_MEMBERS + PAIR_ID_MEMBERS:
        resident, published = getattr(ram, name), getattr(mapped, name)
        if published is None:  # a pair without catalog ids
            assert resident is None, name
            continue
        assert resident.dtype == published.dtype, name
        assert np.array_equal(resident, published), name
        if resident.dtype.kind == "i":
            assert resident.dtype == np.int32, name
            packed.add(name)
    indices = {"site_ptr", "entity_idx", "entity_ptr", "entity_sites", "setcover"}
    orders = {"host_order"} | ({"id_order"} if ram.entity_ids is not None else set())
    assert packed == indices | orders


def test_setcover_runs_no_greedy_at_request_time(apps, monkeypatch):
    """Set cover is a slice of the compiled greedy order: with every
    ``repro`` binding of ``greedy_set_cover`` made to raise, both tiers
    still answer byte-identically to the reference's live greedy."""
    paths = [f"/v1/setcover/restaurants?budget={budget}" for budget in (1, 5, 10, 500)]
    expected = {path: everywhere(apps, path) for path in paths}

    def refuse(*args, **kwargs):
        raise AssertionError("greedy_set_cover ran at request time")

    bound = sorted(
        name
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and "greedy_set_cover" in vars(module)
    )
    assert "repro.core.setcover" in bound
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "greedy_set_cover", refuse)
    for path in paths:
        for tier in TIERS:
            assert apps[tier].handle(path) == expected[path], (tier, path)


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


# -- the compile fans out per pair and recompiles only what is missing -------

FANOUT = Manifest(
    config=CONFIG,
    spread_pairs=(
        ("restaurants", "phone"),
        ("restaurants", "homepage"),
        ("books", "isbn"),
    ),
    traffic_sites=("imdb",),
    artifacts=(),
)


def cache_bytes(directory) -> dict[str, bytes]:
    """Every published file under a cache (quarantine excluded)."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and QUARANTINE_DIR not in path.relative_to(directory).parts
    }


def test_build_store_on_two_workers_publishes_the_same_bytes(tmp_path):
    published = {}
    for workers in (1, 2):
        caller_cache = ArtifactCache(directory=tmp_path / "caller")
        previous = configure_cache(caller_cache)
        timed: list[str] = []
        try:
            cache = ArtifactCache(directory=tmp_path / f"workers{workers}")
            store = build_store(
                FANOUT,
                cache=cache,
                workers=workers,
                on_complete=lambda outcome: timed.append(outcome.name),
            )
            assert active_cache() is caller_cache
        finally:
            configure_cache(previous)
        assert sorted(timed) == sorted(
            f"store:{domain}:{attribute}" for domain, attribute in FANOUT.spread_pairs
        )
        assert [(r["domain"], r["attribute"]) for r in store.meta["pairs"]] == list(
            FANOUT.spread_pairs
        )
        published[workers] = cache_bytes(cache.directory)
    assert published[1].keys() == published[2].keys()
    assert published[1] == published[2]


def test_recompile_materializes_only_the_pair_that_lost_a_blob(tmp_path, monkeypatch):
    import repro.store.compile as store_compile

    cache = ArtifactCache(directory=tmp_path / "cache")
    first = build_store(FANOUT, cache=cache)
    before = cache_bytes(cache.directory)
    blob = first.pair_blobs[("restaurants", "homepage")]["coverage"]
    blob.write_bytes(blob.read_bytes()[:-8] + b"\xff" * 8)

    materialized: list[str] = []
    pair_arrays = store_compile._pair_arrays

    def spy(incidence, ks):
        # Hosts carry the pair: site-000000.<domain>-<attribute>.example.com
        materialized.append(incidence.site_hosts[0].split(".")[1])
        return pair_arrays(incidence, ks)

    monkeypatch.setattr(store_compile, "_pair_arrays", spy)
    rebuilt = build_store(FANOUT, cache=cache)
    assert materialized == ["restaurants-homepage"]
    assert [p.name for p in cache.quarantined_entries()] == [blob.name]
    assert rebuilt.meta == first.meta
    assert cache_bytes(cache.directory) == before
