"""Unit and property tests for BipartiteIncidence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incidence import BipartiteIncidence, rank_by_size, sorted_unique


def test_basic_accessors(tiny_incidence):
    inc = tiny_incidence
    assert inc.n_entities == 6
    assert inc.n_sites == 4
    assert inc.n_edges == 9
    assert inc.site_hosts[0] == "big.example"
    assert inc.site_entities(0).tolist() == [0, 1, 2, 3]
    assert inc.site_sizes().tolist() == [4, 3, 1, 1]


def test_entity_mention_counts(tiny_incidence):
    counts = tiny_incidence.entity_mention_counts()
    assert counts.tolist() == [1, 1, 2, 2, 2, 1]


def test_mentioned_entities_and_average(tiny_incidence):
    assert tiny_incidence.mentioned_entities().tolist() == [0, 1, 2, 3, 4, 5]
    assert tiny_incidence.average_sites_per_entity() == pytest.approx(9 / 6)


def test_unmentioned_entities_counted_in_denominator():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=10, sites=[("a.example", [0, 1])]
    )
    assert len(inc.mentioned_entities()) == 2
    assert inc.average_sites_per_entity() == pytest.approx(1.0)


def test_sites_by_size_order(tiny_incidence):
    order = tiny_incidence.sites_by_size()
    assert order[0] == 0
    assert order[1] == 1
    # ties between the two singleton sites break by index
    assert order.tolist()[2:] == [2, 3]


def test_rank_by_size_is_the_site_ranking(tiny_incidence):
    """One ranking for every caller: decreasing size, ties by index."""
    assert rank_by_size(np.array([1, 3, 1, 3, 0])).tolist() == [1, 3, 0, 2, 4]
    sizes = tiny_incidence.site_sizes()
    assert rank_by_size(sizes).tolist() == tiny_incidence.sites_by_size().tolist()


def test_duplicate_entities_within_site_merged():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=5,
        sites=[("a.example", [1, 1, 2])],
        multiplicities=[[3, 4, 5]],
    )
    assert inc.site_entities(0).tolist() == [1, 2]
    assert inc.site_multiplicities(0).tolist() == [7, 5]


def test_multiplicity_defaults_to_ones(tiny_incidence):
    assert tiny_incidence.site_multiplicities(0).tolist() == [1, 1, 1, 1]
    assert tiny_incidence.total_pages() == tiny_incidence.n_edges


def test_drop_sites(tiny_incidence):
    reduced = tiny_incidence.drop_sites([0])
    assert reduced.n_sites == 3
    assert reduced.n_entities == 6  # denominator unchanged
    assert reduced.site_hosts == ["mid.example", "small.example", "island.example"]
    assert reduced.n_edges == 5


def test_drop_sites_preserves_multiplicity():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=4,
        sites=[("a.example", [0, 1]), ("b.example", [2])],
        multiplicities=[[2, 3], [4]],
    )
    reduced = inc.drop_sites([0])
    assert reduced.site_multiplicities(0).tolist() == [4]
    assert reduced.total_pages() == 4


def test_validation_rejects_bad_pointers():
    with pytest.raises(ValueError):
        BipartiteIncidence(
            n_entities=3,
            site_hosts=["a"],
            site_ptr=np.array([0, 5]),
            entity_idx=np.array([0, 1]),
        )


def test_validation_rejects_out_of_range_entity():
    with pytest.raises(ValueError, match="out of range"):
        BipartiteIncidence(
            n_entities=2,
            site_hosts=["a"],
            site_ptr=np.array([0, 1]),
            entity_idx=np.array([5]),
        )


def test_validation_rejects_zero_multiplicity():
    with pytest.raises(ValueError, match="multiplicities"):
        BipartiteIncidence(
            n_entities=2,
            site_hosts=["a"],
            site_ptr=np.array([0, 1]),
            entity_idx=np.array([0]),
            multiplicity=np.array([0]),
        )


def test_validation_rejects_misaligned_entity_ids():
    with pytest.raises(ValueError, match="entity_ids"):
        BipartiteIncidence(
            n_entities=2,
            site_hosts=["a"],
            site_ptr=np.array([0, 1]),
            entity_idx=np.array([0]),
            entity_ids=["only-one"],
        )


def test_iter_sites(tiny_incidence):
    hosts = [host for host, _ in tiny_incidence.iter_sites()]
    assert hosts == tiny_incidence.site_hosts


@st.composite
def incidence_strategy(draw):
    n_entities = draw(st.integers(min_value=1, max_value=20))
    n_sites = draw(st.integers(min_value=0, max_value=8))
    sites = []
    for s in range(n_sites):
        entities = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_entities - 1),
                max_size=12,
            )
        )
        sites.append((f"s{s}.example", entities))
    return BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)


@given(incidence_strategy())
@settings(max_examples=60)
def test_property_edge_count_consistency(inc):
    """Site sizes and entity mention counts both sum to the edge count."""
    assert inc.site_sizes().sum() == inc.n_edges
    assert inc.entity_mention_counts().sum() == inc.n_edges


@given(incidence_strategy())
@settings(max_examples=60)
def test_property_entities_unique_within_site(inc):
    for s in range(inc.n_sites):
        entities = inc.site_entities(s)
        assert len(np.unique(entities)) == len(entities)


@given(incidence_strategy(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_property_drop_sites_reduces_edges(inc, k):
    k = min(k, inc.n_sites)
    reduced = inc.drop_sites(range(k))
    assert reduced.n_sites == inc.n_sites - k
    assert reduced.n_edges <= inc.n_edges
    assert reduced.n_entities == inc.n_entities


def _drop_sites_reference(inc, sites):
    """Set-based reference for drop_sites (the pre-vectorization shape)."""
    dropped = {int(s) for s in sites if 0 <= int(s) < inc.n_sites}
    hosts, idx_parts, mult_parts = [], [], []
    for s in range(inc.n_sites):
        if s in dropped:
            continue
        hosts.append(inc.site_hosts[s])
        lo, hi = int(inc.site_ptr[s]), int(inc.site_ptr[s + 1])
        idx_parts.append(inc.entity_idx[lo:hi])
        if inc.multiplicity is not None:
            mult_parts.append(inc.multiplicity[lo:hi])
    ptr = np.zeros(len(hosts) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(part) for part in idx_parts])
    concat = lambda parts: (  # noqa: E731
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    return BipartiteIncidence(
        n_entities=inc.n_entities,
        site_hosts=hosts,
        site_ptr=ptr,
        entity_idx=concat(idx_parts),
        multiplicity=(
            concat(mult_parts) if inc.multiplicity is not None else None
        ),
        entity_ids=inc.entity_ids,
    )


def _assert_incidences_equal(actual, expected):
    assert actual.n_entities == expected.n_entities
    assert actual.site_hosts == expected.site_hosts
    np.testing.assert_array_equal(actual.site_ptr, expected.site_ptr)
    np.testing.assert_array_equal(actual.entity_idx, expected.entity_idx)
    if expected.multiplicity is None:
        assert actual.multiplicity is None
    else:
        np.testing.assert_array_equal(actual.multiplicity, expected.multiplicity)


@given(
    incidence_strategy(),
    st.lists(st.integers(min_value=-3, max_value=12), max_size=8),
)
@settings(max_examples=80)
def test_property_drop_sites_matches_set_based_reference(inc, drops):
    """The vectorized drop_sites is exactly the old per-site filter."""
    _assert_incidences_equal(
        inc.drop_sites(drops), _drop_sites_reference(inc, drops)
    )


def test_drop_sites_parity_with_multiplicity_and_hosts():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=5,
        sites=[
            ("a.example", [0, 1, 2]),
            ("b.example", [1, 3]),
            ("c.example", [4]),
            ("d.example", [0, 4]),
        ],
        multiplicities=[[2, 1, 5], [3, 3], [9], [1, 1]],
    )
    # Out-of-range and negative drops are ignored, exactly as the
    # set-based membership test ignored them.
    drops = [1, 3, 99, -1]
    _assert_incidences_equal(
        inc.drop_sites(drops), _drop_sites_reference(inc, drops)
    )
    surviving = inc.drop_sites(drops)
    assert surviving.site_hosts == ["a.example", "c.example"]
    assert surviving.site_multiplicities(0).tolist() == [2, 1, 5]
    assert surviving.site_multiplicities(1).tolist() == [9]


def test_drop_sites_everything_leaves_an_empty_incidence():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=3, sites=[("a.example", [0]), ("b.example", [1, 2])]
    )
    empty = inc.drop_sites(range(inc.n_sites))
    assert empty.n_sites == 0
    assert empty.n_edges == 0
    assert empty.n_entities == 3


# -- sorted_unique: np.unique's answer by one sort -------------------------


@pytest.mark.parametrize(
    "values",
    [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(5, 3, dtype=np.int64),
        np.arange(10, dtype=np.int64)[::-1].copy(),
        np.array([-5, 3, -5, 0, -(2**62), 2**62, 3], dtype=np.int64),
        np.array([4, 1, 4, 2], dtype=np.int32),
        np.array([[3, 1], [1, 2]], dtype=np.int64),
        [5, 1, 5],
    ],
    ids=["empty", "one", "all-equal", "all-distinct", "negative", "int32",
         "2-d", "list"],
)
def test_sorted_unique_equals_np_unique(values):
    expected = np.unique(values)
    got = sorted_unique(values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=200))
@settings(max_examples=100)
def test_property_sorted_unique_equals_np_unique(values):
    array = np.asarray(values, dtype=np.int64)
    assert np.array_equal(sorted_unique(array), np.unique(array))
