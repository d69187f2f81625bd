"""Unit and property tests for the k-coverage analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverage import (
    aggregate_coverage_curve,
    coverage_at,
    default_checkpoints,
    k_coverage_curves,
    sites_needed_for_coverage,
)
from repro.core.incidence import BipartiteIncidence


def test_tiny_k1_coverage(tiny_incidence):
    # top-1 site (big.example) covers 4 of 6 entities
    assert coverage_at(tiny_incidence, 1, k=1) == pytest.approx(4 / 6)
    # top-2 adds entity 4 -> 5 of 6
    assert coverage_at(tiny_incidence, 2, k=1) == pytest.approx(5 / 6)
    # all sites -> every entity
    assert coverage_at(tiny_incidence, 4, k=1) == pytest.approx(1.0)


def test_tiny_k2_coverage(tiny_incidence):
    # entities on >=2 sites: 2, 3 (big+mid), 4 (mid+small)
    assert coverage_at(tiny_incidence, 4, k=2) == pytest.approx(3 / 6)


def test_k_coverage_full_curves(tiny_incidence):
    curves = k_coverage_curves(
        tiny_incidence, ks=(1, 2, 3), checkpoints=[1, 2, 3, 4]
    )
    assert curves.curve(1).tolist() == pytest.approx([4 / 6, 5 / 6, 5 / 6, 1.0])
    assert curves.curve(2)[-1] == pytest.approx(3 / 6)
    assert curves.curve(3)[-1] == pytest.approx(0.0)
    assert curves.final_coverage(1) == pytest.approx(1.0)


def test_curve_unknown_k_raises(tiny_incidence):
    curves = k_coverage_curves(tiny_incidence, ks=(1,))
    with pytest.raises(KeyError):
        curves.curve(7)


def test_custom_order_changes_curve(tiny_incidence):
    reversed_order = np.array([3, 2, 1, 0])
    curves = k_coverage_curves(
        tiny_incidence, ks=(1,), checkpoints=[1], order=reversed_order
    )
    # first site in this order is island.example covering 1 of 6
    assert curves.coverage[0, 0] == pytest.approx(1 / 6)


def test_invalid_inputs(tiny_incidence):
    with pytest.raises(ValueError):
        k_coverage_curves(tiny_incidence, ks=())
    with pytest.raises(ValueError):
        k_coverage_curves(tiny_incidence, ks=(0,))
    with pytest.raises(ValueError):
        k_coverage_curves(tiny_incidence, ks=(1,), checkpoints=[0])
    with pytest.raises(ValueError):
        coverage_at(tiny_incidence, -1)
    with pytest.raises(ValueError):
        sites_needed_for_coverage(tiny_incidence, 1.5)


def test_order_must_not_repeat_a_site(tiny_incidence):
    with pytest.raises(ValueError, match="repeat"):
        k_coverage_curves(tiny_incidence, ks=(1,), order=np.array([0, 1, 0]))


def test_coverage_at_zero_sites(tiny_incidence):
    assert coverage_at(tiny_incidence, 0) == 0.0


def test_sites_needed(tiny_incidence):
    assert sites_needed_for_coverage(tiny_incidence, 0.0) == 0
    assert sites_needed_for_coverage(tiny_incidence, 4 / 6) == 1
    assert sites_needed_for_coverage(tiny_incidence, 1.0) == 4
    assert sites_needed_for_coverage(tiny_incidence, 1.0, k=3) is None


def test_default_checkpoints_cover_range():
    checkpoints = default_checkpoints(1000)
    assert checkpoints[0] == 1
    assert checkpoints[-1] == 1000
    assert np.all(np.diff(checkpoints) > 0)
    assert default_checkpoints(0).size == 0


def test_aggregate_coverage_with_multiplicity():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=3,
        sites=[("a.example", [0, 1]), ("b.example", [2])],
        multiplicities=[[5, 3], [2]],
    )
    checkpoints, fractions = aggregate_coverage_curve(inc, checkpoints=[1, 2])
    assert fractions.tolist() == pytest.approx([8 / 10, 1.0])


def test_aggregate_coverage_without_multiplicity(tiny_incidence):
    __, fractions = aggregate_coverage_curve(tiny_incidence, checkpoints=[4])
    assert fractions[-1] == pytest.approx(1.0)


@st.composite
def incidence_and_order(draw):
    n_entities = draw(st.integers(min_value=1, max_value=15))
    n_sites = draw(st.integers(min_value=1, max_value=6))
    sites = []
    for s in range(n_sites):
        entities = draw(
            st.lists(st.integers(min_value=0, max_value=n_entities - 1), max_size=10)
        )
        sites.append((f"s{s}", entities))
    return BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)


@given(incidence_and_order(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_property_coverage_monotone_in_t(inc, k):
    """k-coverage never decreases as more sites are added."""
    checkpoints = list(range(1, inc.n_sites + 1))
    curves = k_coverage_curves(inc, ks=(k,), checkpoints=checkpoints)
    assert np.all(np.diff(curves.curve(k)) >= -1e-12)


@given(incidence_and_order())
@settings(max_examples=60)
def test_property_coverage_decreasing_in_k(inc):
    """At any t, higher redundancy k can only lower coverage."""
    checkpoints = [inc.n_sites]
    curves = k_coverage_curves(inc, ks=(1, 2, 3), checkpoints=checkpoints)
    values = curves.coverage[:, 0]
    assert values[0] >= values[1] >= values[2]


@given(incidence_and_order())
@settings(max_examples=60)
def test_property_matches_bruteforce(inc):
    """Streaming computation agrees with a brute-force recount."""
    order = inc.sites_by_size()
    for t in (1, inc.n_sites):
        counts = np.zeros(inc.n_entities, dtype=int)
        for site in order[:t]:
            counts[inc.site_entities(int(site))] += 1
        for k in (1, 2):
            expected = float(np.mean(counts >= k))
            assert coverage_at(inc, t, k=k) == pytest.approx(expected)


def loop_k_coverage(incidence, ks, checkpoints, order):
    """The per-site streaming loop ``k_coverage_curves`` replaced.

    For every site in ``order``, bump its entities' mention counts and
    count, per level, the entities whose count just reached it; record
    ``reached[k] / n_entities`` at each checkpoint.
    """
    n = incidence.n_entities
    kmax = max(ks)
    counts = np.zeros(n, dtype=np.int64)
    reached = np.zeros(kmax + 2, dtype=np.int64)
    coverage = np.zeros((len(ks), len(checkpoints)))
    next_checkpoint = 0
    denominator = max(n, 1)
    for t, site in enumerate(order, start=1):
        entities = incidence.site_entities(int(site))
        if len(entities):
            new_counts = counts[entities] + 1
            counts[entities] = new_counts
            hits = new_counts[new_counts <= kmax]
            if len(hits):
                np.add.at(reached, hits, 1)
        while next_checkpoint < len(checkpoints) and checkpoints[next_checkpoint] == t:
            for row, k in enumerate(ks):
                coverage[row, next_checkpoint] = reached[k] / denominator
            next_checkpoint += 1
    return coverage


@st.composite
def ranked_incidence(draw):
    """A random incidence (empty sites and unmentioned entities
    allowed), a site order over all or part of it, and checkpoints
    that may reach the order's end."""
    n_entities = draw(st.integers(min_value=0, max_value=20))
    n_sites = draw(st.integers(min_value=1, max_value=8))
    entity = st.integers(min_value=0, max_value=max(n_entities - 1, 0))
    sites = [
        (f"s{site}", draw(st.lists(entity, max_size=12)) if n_entities else [])
        for site in range(n_sites)
    ]
    incidence = BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)
    order = draw(st.permutations(range(n_sites)))
    order = np.asarray(order[: draw(st.integers(min_value=0, max_value=n_sites))])
    if len(order):
        checkpoints = draw(
            st.lists(st.integers(min_value=1, max_value=len(order)), max_size=6)
        )
        checkpoints.append(len(order))
    else:
        checkpoints = []
    ks = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=5), min_size=1))))
    return incidence, order, checkpoints, ks


@given(ranked_incidence())
@settings(max_examples=150, deadline=None)
def test_property_matches_the_per_site_loop(case):
    """The array formulation is bit-identical to the streaming loop."""
    incidence, order, checkpoints, ks = case
    curves = k_coverage_curves(incidence, ks=ks, checkpoints=checkpoints, order=order)
    expected = loop_k_coverage(incidence, ks, np.unique(checkpoints), order)
    assert curves.coverage.shape == expected.shape
    assert curves.coverage.tobytes() == expected.tobytes()


def test_default_order_and_checkpoints_match_the_per_site_loop(tiny_incidence):
    curves = k_coverage_curves(tiny_incidence, ks=(1, 2, 3))
    expected = loop_k_coverage(
        tiny_incidence, (1, 2, 3), curves.checkpoints, tiny_incidence.sites_by_size()
    )
    assert curves.coverage.tobytes() == expected.tobytes()
