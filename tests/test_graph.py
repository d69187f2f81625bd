"""Unit and property tests for the entity-site graph analysis.

Components, BFS distances, and exact diameters are cross-checked
against networkx on randomized graphs; component labels against
:class:`UnionFind`, and the reverse robustness curve against the
per-k loop it replaced.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import graph as graph_module
from repro.core.graph import (
    EntitySiteGraph,
    GraphMetrics,
    UnionFind,
    robustness_curve,
)
from repro.core.incidence import BipartiteIncidence


def to_networkx(inc: BipartiteIncidence) -> nx.Graph:
    graph = nx.Graph()
    for s in range(inc.n_sites):
        site_node = inc.n_entities + s
        for e in inc.site_entities(s).tolist():
            graph.add_edge(e, site_node)
    return graph


def loop_robustness_curve(incidence, max_removed):
    """The per-k reference: drop the top k sites and relabel, each k."""
    original_entities = len(incidence.mentioned_entities())
    ranking = incidence.sites_by_size()
    ks = np.arange(max_removed + 1)
    fractions = np.zeros(len(ks))
    for i, k in enumerate(ks):
        remaining = incidence.drop_sites(ranking[:k]) if k else incidence
        summary = EntitySiteGraph(remaining).components()
        if original_entities:
            fractions[i] = summary.largest_component_entities / original_entities
    return ks, fractions


def union_find_labels(n_nodes, edges):
    """Smallest node id per component, via UnionFind."""
    uf = UnionFind(n_nodes)
    for a, b in edges:
        uf.union(int(a), int(b))
    roots = uf.roots()
    smallest = np.full(n_nodes, n_nodes, dtype=np.int64)
    np.minimum.at(smallest, roots, np.arange(n_nodes))
    return smallest[roots]


def graph_edges(graph):
    """Every (entity, site node) edge of an EntitySiteGraph."""
    inc = graph.incidence
    sites = np.repeat(np.arange(inc.n_sites), inc.site_sizes()) + inc.n_entities
    return list(zip(inc.entity_idx.tolist(), sites.tolist()))


@st.composite
def incidences_with_empty_sites(draw):
    """Small incidences: empty sites, tied site sizes, unmentioned entities."""
    n_entities = draw(st.integers(min_value=1, max_value=12))
    n_sites = draw(st.integers(min_value=0, max_value=8))
    sites = [
        (
            f"s{s}",
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_entities - 1),
                    max_size=4,
                    unique=True,
                )
            ),
        )
        for s in range(n_sites)
    ]
    return BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)


# -- UnionFind -------------------------------------------------------------------


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 4
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) != uf.find(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_roots_consistent_with_find(self):
        uf = UnionFind(10)
        rng = np.random.default_rng(3)
        for _ in range(15):
            a, b = rng.integers(10, size=2)
            uf.union(int(a), int(b))
        roots = uf.roots()
        for x in range(10):
            assert roots[x] == uf.find(x)

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40))
    @settings(max_examples=60)
    def test_property_matches_networkx(self, unions):
        uf = UnionFind(15)
        graph = nx.Graph()
        graph.add_nodes_from(range(15))
        for a, b in unions:
            uf.union(a, b)
            graph.add_edge(a, b)
        assert uf.n_components == nx.number_connected_components(graph)


# -- components ---------------------------------------------------------------------


class TestComponents:
    def test_tiny_structure(self, tiny_incidence):
        summary = EntitySiteGraph(tiny_incidence).components()
        assert summary.n_components == 2
        assert summary.n_present_entities == 6
        assert summary.n_present_sites == 4
        assert summary.largest_component_entities == 5
        assert summary.fraction_entities_in_largest == pytest.approx(5 / 6)
        assert summary.component_entity_counts.tolist() == [5, 1]

    def test_unmentioned_entities_not_in_graph(self):
        inc = BipartiteIncidence.from_site_lists(
            n_entities=10, sites=[("a.example", [0, 1])]
        )
        summary = EntitySiteGraph(inc).components()
        assert summary.n_present_entities == 2
        assert summary.n_components == 1

    def test_empty_graph(self):
        inc = BipartiteIncidence.from_site_lists(n_entities=3, sites=[])
        summary = EntitySiteGraph(inc).components()
        assert summary.n_components == 0
        assert summary.fraction_entities_in_largest == 0.0

    def test_components_match_networkx(self, random_incidence):
        summary = EntitySiteGraph(random_incidence).components()
        reference = to_networkx(random_incidence)
        assert summary.n_components == nx.number_connected_components(reference)
        largest = max(nx.connected_components(reference), key=len)
        entities_in_largest = sum(
            1 for node in largest if node < random_incidence.n_entities
        )
        assert summary.largest_component_entities == entities_in_largest


# -- BFS / diameter ------------------------------------------------------------------


class TestDistances:
    def test_bfs_levels_tiny(self, tiny_incidence):
        graph = EntitySiteGraph(tiny_incidence)
        levels = graph.bfs_levels(0)  # entity 0
        assert levels[0] == 0
        assert levels[6] == 1  # big.example (node n_entities + 0)
        assert levels[1] == 2  # sibling entity via big.example
        assert levels[4] == 4  # entity 4 via mid.example
        assert levels[5] == -1  # island unreachable

    def test_eccentricity(self, tiny_incidence):
        graph = EntitySiteGraph(tiny_incidence)
        assert graph.eccentricity(0) == 5  # entity0 ... small.example

    def test_degree_and_neighbors(self, tiny_incidence):
        graph = EntitySiteGraph(tiny_incidence)
        assert graph.degree(0) == 1
        assert graph.degree(6) == 4
        assert set(graph.neighbors(6).tolist()) == {0, 1, 2, 3}

    def test_diameter_tiny(self, tiny_incidence):
        # Largest component: path small.example-4-mid-{2,3}-big-{0,1}
        assert EntitySiteGraph(tiny_incidence).diameter() == 5

    def test_diameter_single_node_component(self):
        inc = BipartiteIncidence.from_site_lists(
            n_entities=1, sites=[("solo.example", [0])]
        )
        assert EntitySiteGraph(inc).diameter() == 1

    def test_diameter_empty(self):
        inc = BipartiteIncidence.from_site_lists(n_entities=2, sites=[])
        assert EntitySiteGraph(inc).diameter() == 0

    def test_bfs_matches_networkx(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        reference = to_networkx(random_incidence)
        source = int(random_incidence.site_entities(0)[0])
        expected = nx.single_source_shortest_path_length(reference, source)
        levels = graph.bfs_levels(source)
        for node, distance in expected.items():
            assert levels[node] == distance

    def test_diameter_matches_networkx(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        reference = to_networkx(random_incidence)
        largest = max(nx.connected_components(reference), key=len)
        expected = nx.diameter(reference.subgraph(largest))
        assert graph.diameter() == expected

    def test_double_sweep_lower_bound(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        start = int(graph.present_nodes()[0])
        lower, root, __ = graph.double_sweep(start)
        assert lower <= graph.diameter()
        assert graph.bfs_levels(start)[root] >= 0  # root in same component


@st.composite
def connected_ish_incidence(draw):
    n_entities = draw(st.integers(min_value=2, max_value=14))
    n_sites = draw(st.integers(min_value=1, max_value=6))
    sites = []
    for s in range(n_sites):
        entities = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_entities - 1),
                min_size=1,
                max_size=6,
            )
        )
        sites.append((f"s{s}", entities))
    return BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)


@given(connected_ish_incidence())
@settings(max_examples=50, deadline=None)
def test_property_diameter_exact(inc):
    """BoundingDiameters equals networkx's exact diameter.

    The library defines the diameter of a disconnected graph as the
    max over its components, so the reference does the same.
    """
    reference = to_networkx(inc)
    expected = max(
        (
            nx.diameter(reference.subgraph(component))
            for component in nx.connected_components(reference)
            if len(component) > 1
        ),
        default=0,
    )
    assert EntitySiteGraph(inc).diameter() == expected


@given(connected_ish_incidence())
@settings(max_examples=50, deadline=None)
def test_property_components_exact(inc):
    summary = EntitySiteGraph(inc).components()
    reference = to_networkx(inc)
    assert summary.n_components == nx.number_connected_components(reference)


# -- numpy kernels ---------------------------------------------------------------------


class TestKernels:
    def test_component_labels_match_union_find_on_a_shuffled_long_path(self):
        """200,000 nodes in random id order, cut into five paths.

        Min-label propagation would need a round per hop here; hook and
        shortcut needs a handful.
        """
        rng = np.random.default_rng(5)
        n_entities = 100_000
        path = rng.permutation(n_entities)
        # Site s joins path[s] and path[s + 1], except every 25,000th,
        # which holds path[s] alone; sites are stored in shuffled order.
        links = np.flatnonzero(np.arange(n_entities - 1) % 25_000 != 0)
        firsts = np.arange(n_entities - 1)
        edge_site = np.concatenate([firsts, links])
        edge_entity = np.concatenate([path[firsts], path[links + 1]])
        site_order = rng.permutation(n_entities - 1)
        rank = np.argsort(site_order)[edge_site]
        edges = np.argsort(rank, kind="stable")
        inc = BipartiteIncidence(
            n_entities=n_entities,
            site_hosts=[f"s{s}" for s in range(n_entities - 1)],
            site_ptr=np.concatenate([[0], np.cumsum(np.bincount(rank))]),
            entity_idx=edge_entity[edges],
        )
        graph = EntitySiteGraph(inc)
        expected = union_find_labels(graph.n_nodes, graph_edges(graph))
        assert np.array_equal(graph.component_labels(), expected)
        assert graph.components().n_components == 5

    @given(incidences_with_empty_sites())
    @settings(max_examples=80, deadline=None)
    def test_component_labels_are_the_smallest_node_id(self, inc):
        graph = EntitySiteGraph(inc)
        expected = union_find_labels(graph.n_nodes, graph_edges(graph))
        assert np.array_equal(graph.component_labels(), expected)

    def test_bfs_runs_bottom_up_levels_and_matches_networkx(self, monkeypatch):
        """Dense components, isolated nodes and degree-0 sources."""
        rng = np.random.default_rng(11)
        sites = [
            rng.choice(hi - lo, size=int(rng.integers(1, hi - lo)), replace=False) + lo
            for lo, hi, n_sites in ((0, 60, 60), (60, 70, 5), (70, 76, 3))
            for __ in range(n_sites)
        ]
        n_entities = 80  # entities 76..79 are mentioned nowhere
        inc = BipartiteIncidence.from_site_lists(
            n_entities=n_entities,
            sites=[(f"s{i}", members.tolist()) for i, members in enumerate(sites)]
            + [("empty", [])],
        )
        graph, reference = EntitySiteGraph(inc), to_networkx(inc)
        assert graph.degree(79) == 0 and graph.degree(graph.n_nodes - 1) == 0
        levels_seen = []
        bottom_up = graph_module._bottom_up
        monkeypatch.setattr(
            graph_module,
            "_bottom_up",
            lambda *args: levels_seen.append(args[-1]) or bottom_up(*args),
        )
        for source in (0, 39, 41, 75, 79, n_entities, graph.n_nodes - 1):
            expected = np.full(graph.n_nodes, -1)
            expected[source] = 0
            if source in reference:
                for node, distance in nx.single_source_shortest_path_length(
                    reference, source
                ).items():
                    expected[node] = distance
            assert np.array_equal(graph.bfs_levels(source), expected), source
        assert levels_seen, "no level went bottom-up"

    @given(connected_ish_incidence())
    @settings(max_examples=60, deadline=None)
    def test_property_bfs_matches_networkx(self, inc):
        graph, reference = EntitySiteGraph(inc), to_networkx(inc)
        for source in graph.present_nodes().tolist():
            expected = np.full(graph.n_nodes, -1)
            for node, distance in nx.single_source_shortest_path_length(
                reference, source
            ).items():
                expected[node] = distance
            assert np.array_equal(graph.bfs_levels(source), expected)


# -- metrics & robustness --------------------------------------------------------------


class TestMetricsAndRobustness:
    def test_graph_metrics_row(self, tiny_incidence):
        metrics = GraphMetrics.measure(tiny_incidence, "demo", "phone")
        assert metrics.domain == "demo"
        assert metrics.diameter == 5
        assert metrics.n_components == 2
        assert metrics.avg_sites_per_entity == pytest.approx(9 / 6)
        assert metrics.pct_entities_in_largest == pytest.approx(100 * 5 / 6)

    def test_robustness_curve_tiny(self, tiny_incidence):
        ks, fractions = robustness_curve(tiny_incidence, max_removed=2)
        assert ks.tolist() == [0, 1, 2]
        assert fractions[0] == pytest.approx(5 / 6)
        # removing big.example leaves mid+small component of 3 entities
        assert fractions[1] == pytest.approx(3 / 6)

    def test_robustness_denominator_fixed(self, tiny_incidence):
        __, fractions = robustness_curve(tiny_incidence, max_removed=4)
        # with every site removed nothing is in any component
        assert fractions[-1] == pytest.approx(0.0)

    def test_robustness_rejects_negative(self, tiny_incidence):
        with pytest.raises(ValueError):
            robustness_curve(tiny_incidence, max_removed=-1)

    @given(incidences_with_empty_sites(), st.integers(min_value=0, max_value=11))
    @settings(max_examples=150, deadline=None)
    def test_property_robustness_matches_the_per_k_loop(self, inc, max_removed):
        """Empty sites, tied sizes, and max_removed from 0 past n_sites."""
        ks, fractions = robustness_curve(inc, max_removed=max_removed)
        ref_ks, ref_fractions = loop_robustness_curve(inc, max_removed)
        assert np.array_equal(ks, ref_ks)
        assert fractions.tobytes() == ref_fractions.tobytes()

    def test_robustness_matches_the_per_k_loop_on_random_graphs(self, random_incidence):
        for max_removed in (0, 3, 10, random_incidence.n_sites + 2):
            ks, fractions = robustness_curve(random_incidence, max_removed)
            ref_ks, ref_fractions = loop_robustness_curve(random_incidence, max_removed)
            assert np.array_equal(ks, ref_ks)
            assert fractions.tobytes() == ref_fractions.tobytes()

    def test_equal_node_counts_go_to_the_smaller_node_id(self):
        """Two 4-node components: {0, 1, 2} + 1 site and {3, 4} + 2 sites.

        The first holds node 0 and more entities; the second wins only
        if ties went the other way.  Removing the top site (size 3, the
        first component's only site) leaves the second alone.
        """
        sites = [("a", [0, 1, 2]), ("b", [3, 4]), ("c", [4])]
        inc = BipartiteIncidence.from_site_lists(n_entities=5, sites=sites)
        summary = EntitySiteGraph(inc).components()
        largest = (summary.largest_component_entities, summary.largest_component_sites)
        assert largest == (3, 1)
        __, fractions = robustness_curve(inc, max_removed=1)
        assert fractions.tolist() == [3 / 5, 2 / 5]
        # Mirrored ids: the 2-entity component now holds node 0 and wins.
        mirrored = [("a", [2, 3, 4]), ("b", [0, 1]), ("c", [0])]
        inc = BipartiteIncidence.from_site_lists(n_entities=5, sites=mirrored)
        summary = EntitySiteGraph(inc).components()
        largest = (summary.largest_component_entities, summary.largest_component_sites)
        assert largest == (2, 2)
        __, fractions = robustness_curve(inc, max_removed=1)
        assert fractions.tolist() == [2 / 5, 2 / 5]

    def test_robustness_monotone_nonincreasing(self, random_incidence):
        __, fractions = robustness_curve(random_incidence, max_removed=5)
        assert np.all(np.diff(fractions) <= 1e-12)


class TestEccentricitySample:
    def test_bounded_by_radius_and_diameter(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        eccentricities = graph.eccentricity_sample(sample_size=32, rng=1)
        diameter = graph.diameter()
        assert len(eccentricities) > 0
        assert eccentricities.max() <= diameter
        # radius >= diameter / 2 for any graph
        assert eccentricities.min() >= (diameter + 1) // 2

    def test_sorted_output(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        eccentricities = graph.eccentricity_sample(sample_size=16, rng=2)
        assert (np.diff(eccentricities) >= 0).all()

    def test_empty_graph(self):
        inc = BipartiteIncidence.from_site_lists(n_entities=2, sites=[])
        assert EntitySiteGraph(inc).eccentricity_sample().size == 0

    def test_validation(self, random_incidence):
        with pytest.raises(ValueError):
            EntitySiteGraph(random_incidence).eccentricity_sample(sample_size=0)
