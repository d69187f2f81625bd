"""repro.serve.indices: CSR parity, coverage tables, manifest round-trip.

The ram and mmap tiers are checked against the pipeline's incidence,
built here independently of the compiled store they share."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.coverage import k_coverage_curves
from repro.core.graph import EntitySiteGraph
from repro.core.incidence import BipartiteIncidence
from repro.core.setcover import greedy_set_cover
from repro.perf import ArtifactCache, configure_cache
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.experiments import spread_incidence
from repro.pipeline.runall import MANIFEST_NAME, write_manifest
from repro.serve.indices import Manifest, build_index, load_manifest

CONFIG = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)

MANIFEST = Manifest(
    config=CONFIG,
    spread_pairs=(("restaurants", "phone"), ("books", "isbn")),
    traffic_sites=("imdb",),
    artifacts=("table1.txt",),
)


@pytest.fixture(scope="module")
def index():
    return build_index(MANIFEST)


@pytest.fixture(scope="module")
def incidences():
    """Each pair's incidence, straight from the pipeline."""
    return {
        (domain, attribute): spread_incidence(domain, attribute, CONFIG)
        for domain, attribute in MANIFEST.spread_pairs
    }


@pytest.fixture(scope="module")
def tiers(index, tmp_path_factory):
    """The ram index (compiled in memory) and the mmap tier over a
    published store."""
    previous = configure_cache(
        ArtifactCache(directory=tmp_path_factory.mktemp("store-cache"))
    )
    try:
        return {"ram": index, "mmap": build_index(MANIFEST, backend="mmap")}
    finally:
        configure_cache(previous)


def test_index_shape(index):
    assert set(index.pairs) == {("restaurants", "phone"), ("books", "isbn")}
    assert index.default_attribute == {"restaurants": "phone", "books": "isbn"}
    assert set(index.demand) == {"imdb"}
    assert index.build_seconds > 0


def test_transpose_matches_graph_neighbors(tiers, incidences):
    """entity→sites CSR must agree with EntitySiteGraph adjacency.

    Graph node ids put site ``s`` at ``n_entities + s``, so the graph's
    neighbour list for an entity is exactly the transpose row shifted.
    """
    for key, incidence in incidences.items():
        graph = EntitySiteGraph(incidence)
        for tier in tiers.values():
            pair = tier.pairs[key]
            assert pair.n_entities == incidence.n_entities
            for entity in range(pair.n_entities):
                sites = pair.sites_of_entity(entity)
                assert np.array_equal(
                    sites + pair.n_entities, graph.neighbors(entity)
                )
                # Ascending site order is part of the response contract.
                assert np.all(np.diff(sites) >= 0)


def test_entity_site_round_trip(index):
    pair = index.pairs[("restaurants", "phone")]
    for entity in range(0, pair.n_entities, max(1, pair.n_entities // 17)):
        for site in pair.sites_of_entity(entity):
            assert entity in pair.entities_on_site(int(site))


def test_coverage_table_matches_direct_curves(tiers, incidences):
    incidence = incidences[("restaurants", "phone")]
    checkpoints = np.asarray([1, incidence.n_sites // 2, incidence.n_sites])
    direct = k_coverage_curves(incidence, ks=CONFIG.ks, checkpoints=checkpoints)
    for tier in tiers.values():
        pair = tier.pairs[("restaurants", "phone")]
        for row, k in enumerate(CONFIG.ks):
            for col, t in enumerate(checkpoints):
                assert pair.coverage_at(k, int(t)) == pytest.approx(
                    float(direct.coverage[row, col])
                )


def test_hosts_and_labels_match_the_incidence(tiers, incidences):
    """String columns and their resolution, against the incidence's own
    host list and catalog ids (the last duplicate wins)."""
    for key, incidence in incidences.items():
        last_site = {host: s for s, host in enumerate(incidence.site_hosts)}
        ids = incidence.entity_ids
        last_entity = {label: e for e, label in enumerate(ids or ())}
        for tier in tiers.values():
            pair = tier.pairs[key]
            everything = np.arange(pair.n_sites)
            assert pair.site_hosts(everything) == list(incidence.site_hosts)
            for host, site in last_site.items():
                assert pair.site_of_host(host) == site
            assert pair.site_of_host("no-such-host.example") is None
            entities = np.arange(pair.n_entities)
            expected = ids if ids is not None else [str(e) for e in entities]
            assert pair.entity_labels(entities) == list(expected)
            for label, entity in last_entity.items():
                assert pair.resolve_entity(label) == entity


def test_duplicate_keys_resolve_last_and_labels_decode(tmp_path, monkeypatch):
    """Catalog ids and hosts with duplicates and non-ASCII text: every
    array residency resolves the last duplicate, like a dict would."""
    import repro.pipeline.experiments as experiments

    incidence = BipartiteIncidence.from_site_lists(
        n_entities=4,
        sites=[("a.example", [0, 1]), ("b.example", [1, 2]), ("a.example", [3])],
        entity_ids=["x", "\u00fc-1", "x", "z"],
    )
    monkeypatch.setattr(experiments, "spread_incidence", lambda *args: incidence)
    manifest = Manifest(
        config=CONFIG,
        spread_pairs=(("synthetic", "ids"),),
        traffic_sites=(),
        artifacts=(),
    )
    uncached = build_index(manifest, backend="ram")
    previous = configure_cache(ArtifactCache(directory=tmp_path / "cache"))
    try:
        opened = [build_index(manifest, backend=tier) for tier in ("ram", "mmap")]
    finally:
        configure_cache(previous)
    for index in (uncached, *opened):
        pair = index.pairs[("synthetic", "ids")]
        assert pair.site_of_host("a.example") == 2
        assert pair.site_of_host("b.example") == 1
        assert pair.resolve_entity("x") == 2
        assert pair.resolve_entity("\u00fc-1") == 1
        assert pair.resolve_entity("3") == 3
        assert pair.entity_label(1) == "\u00fc-1"
        assert pair.entity_labels([3, 1, 0]) == ["z", "\u00fc-1", "x"]
        assert pair.entity_site_hosts(1) == ["a.example", "b.example"]
        assert pair.site_hosts([2, 0]) == ["a.example", "a.example"]


def test_host_directory_matches_hosts_across_pairs(tmp_path, monkeypatch):
    """The ram tier resolves a host for every pair in one search; it must
    answer like each pair's own search: a host shared by two pairs
    matches both in key order, a duplicate within a pair resolves to its
    last site, and hosts whose CRC-32 collide ("plumless"/"buckeroo")
    stay apart.  Unfiltered site requests render byte-identically on
    every tier."""
    import repro.pipeline.experiments as experiments
    from repro.serve import ServeApp, ServeSettings

    corpora = {
        ("one", "a"): BipartiteIncidence.from_site_lists(
            n_entities=3,
            sites=[("plumless", [0]), ("shared.example", [1]), ("plumless", [2])],
        ),
        ("two", "b"): BipartiteIncidence.from_site_lists(
            n_entities=3,
            sites=[
                ("shared.example", [0, 2]),
                ("buckeroo", [1]),
                ("\u00fc.example", [0]),
            ],
        ),
    }
    monkeypatch.setattr(
        experiments,
        "spread_incidence",
        lambda domain, attribute, config: corpora[(domain, attribute)],
    )
    manifest = Manifest(
        config=CONFIG, spread_pairs=tuple(corpora), traffic_sites=(), artifacts=()
    )
    index = build_index(manifest, backend="ram")
    assert index.host_directory is not None

    def matches(host, domain=None, attribute=None):
        return [
            (pair.domain, site)
            for pair, site in index.host_matches(host, domain, attribute)
        ]

    assert matches("shared.example") == [("one", 1), ("two", 0)]
    assert matches("plumless") == [("one", 2)]
    assert matches("buckeroo") == [("two", 1)]
    assert matches("\u00fc.example") == [("two", 2)]
    assert matches("shared.example", domain="two") == [("two", 0)]
    assert matches("shared.example", attribute="a") == [("one", 1)]
    assert matches("shared.example", "one", "b") == []
    assert matches("no-such-host.example") == []

    previous = configure_cache(ArtifactCache(directory=tmp_path / "cache"))
    try:
        apps = {
            tier: ServeApp(
                build_index(manifest, backend=tier),
                ServeSettings(response_cache_entries=0),
            )
            for tier in ("ram", "mmap")
        }
    finally:
        configure_cache(previous)
    try:
        for host in ("shared.example", "plumless", "buckeroo", "nope.example"):
            for query in ("", "?limit=1", "?domain=two", "?attribute=a"):
                path = f"/v1/site/{host}/entities{query}"
                bodies = {tier: app.handle(path) for tier, app in apps.items()}
                assert bodies["ram"] == bodies["mmap"], path
    finally:
        for app in apps.values():
            app.close()


def test_set_cover_matches_greedy_on_the_incidence(tiers, incidences):
    for key, incidence in incidences.items():
        for budget in (1, 5, incidence.n_sites):
            order, gains = greedy_set_cover(incidence, max_sites=budget)
            for tier in tiers.values():
                result = tier.pairs[key].set_cover(budget)
                assert result["selected"] == [
                    incidence.site_hosts[int(s)] for s in order
                ]
                assert result["gains"] == gains.tolist()


def test_coverage_param_validation(index):
    pair = index.pairs[("books", "isbn")]
    with pytest.raises(KeyError):
        pair.coverage_at(max(CONFIG.ks) + 1, 1)
    with pytest.raises(ValueError):
        pair.coverage_at(1, 0)
    with pytest.raises(ValueError):
        pair.coverage_at(1, pair.n_sites + 1)


def test_resolve_entity_accepts_ids_and_indices(index):
    pair = index.pairs[("restaurants", "phone")]
    label = pair.entity_label(3)
    assert pair.resolve_entity(label) == 3
    assert pair.resolve_entity("3") == 3
    assert pair.resolve_entity("no-such-entity") is None
    assert pair.resolve_entity(str(pair.n_entities)) is None


def test_set_cover_gains_monotone(index):
    pair = index.pairs[("restaurants", "phone")]
    result = pair.set_cover(5)
    assert len(result["selected"]) <= 5
    gains = result["gains"]
    assert all(a >= b for a, b in zip(gains, gains[1:]))
    assert 0 < result["coverage"] <= 1


def test_demand_lookup_shape(index):
    table = index.demand["imdb"]
    for source in ("search", "browse"):
        found = table.lookup(source, 4)
        assert set(found) == {"bin_center", "mean_normalized_demand"}
    with pytest.raises(KeyError):
        table.lookup("carrier-pigeon", 4)
    with pytest.raises(ValueError):
        table.lookup("search", -1)


def test_manifest_round_trip(tmp_path):
    path = write_manifest(tmp_path, CONFIG, ["b.txt", "a.txt"])
    assert path.name == MANIFEST_NAME
    loaded = load_manifest(tmp_path)  # directory form
    assert loaded.config == CONFIG
    assert loaded.artifacts == ("a.txt", "b.txt")  # sorted on write
    assert ("restaurants", "phone") in loaded.spread_pairs
    assert loaded.traffic_sites == ("imdb", "amazon", "yelp")
    assert load_manifest(path).config == CONFIG  # file form


def test_manifest_rejects_wrong_format(tmp_path):
    bogus = tmp_path / MANIFEST_NAME
    bogus.write_text(json.dumps({"format": "not-a-manifest"}))
    with pytest.raises(ValueError, match="expected format"):
        load_manifest(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "missing-dir")


def test_build_index_deterministic_identity(index):
    again = build_index(MANIFEST)
    assert again.identity == index.identity
    pair, again_pair = (
        i.pairs[("books", "isbn")] for i in (index, again)
    )
    assert np.array_equal(pair.entity_sites, again_pair.entity_sites)
    assert np.array_equal(pair.coverage, again_pair.coverage)
