"""Unit and property tests for the greedy set cover."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverage import k_coverage_curves
from repro.core.incidence import BipartiteIncidence
from repro.core.setcover import greedy_coverage_curve, greedy_set_cover


def test_greedy_picks_biggest_first(tiny_incidence):
    order, gains = greedy_set_cover(tiny_incidence)
    assert order[0] == 0  # big.example, 4 fresh entities
    assert gains[0] == 4


def test_greedy_skips_redundant_sites():
    inc = BipartiteIncidence.from_site_lists(
        n_entities=4,
        sites=[
            ("all.example", [0, 1, 2, 3]),
            ("dup.example", [0, 1, 2]),  # fully covered after first pick
            ("also.example", [1, 2]),
        ],
    )
    order, gains = greedy_set_cover(inc)
    assert order.tolist() == [0]
    assert gains.tolist() == [4]


def test_greedy_prefers_complementary_over_size():
    # Classic case: two medium disjoint sites beat overlapping big ones.
    inc = BipartiteIncidence.from_site_lists(
        n_entities=6,
        sites=[
            ("left.example", [0, 1, 2]),
            ("right.example", [3, 4, 5]),
            ("overlap.example", [0, 1, 3, 4]),  # biggest but redundant later
        ],
    )
    order, gains = greedy_set_cover(inc)
    assert order[0] == 2  # largest first
    # after overlap.example, left and right each contribute their fresh part
    assert sum(gains) == 6
    assert len(order) == 3


def test_max_sites_cap(tiny_incidence):
    order, gains = greedy_set_cover(tiny_incidence, max_sites=1)
    assert len(order) == 1
    with pytest.raises(ValueError):
        greedy_set_cover(tiny_incidence, max_sites=-1)


def test_total_gain_equals_union(tiny_incidence):
    __, gains = greedy_set_cover(tiny_incidence)
    assert gains.sum() == len(tiny_incidence.mentioned_entities())


def test_greedy_coverage_curve_saturates(tiny_incidence):
    checkpoints, fractions = greedy_coverage_curve(
        tiny_incidence, checkpoints=np.array([1, 2, 3, 4])
    )
    assert fractions[-1] == pytest.approx(1.0)
    assert np.all(np.diff(fractions) >= 0)


@st.composite
def random_incidence_strategy(draw):
    n_entities = draw(st.integers(min_value=1, max_value=18))
    n_sites = draw(st.integers(min_value=1, max_value=7))
    sites = []
    for s in range(n_sites):
        entities = draw(
            st.lists(st.integers(min_value=0, max_value=n_entities - 1), max_size=12)
        )
        sites.append((f"s{s}", entities))
    return BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)


@given(random_incidence_strategy())
@settings(max_examples=60)
def test_property_greedy_dominates_size_order(inc):
    """Greedy 1-coverage is >= size-order 1-coverage at every t.

    This is the precise sense in which Figure 5's comparison is one-
    sided: greedy can only help.
    """
    checkpoints = list(range(1, inc.n_sites + 1))
    size_curves = k_coverage_curves(inc, ks=(1,), checkpoints=checkpoints)
    __, greedy = greedy_coverage_curve(inc, checkpoints=np.array(checkpoints))
    assert np.all(greedy - size_curves.curve(1) >= -1e-12)


@given(random_incidence_strategy())
@settings(max_examples=60)
def test_property_greedy_matches_naive_greedy(inc):
    """Lazy-heap greedy equals the O(S^2) textbook greedy step-for-step
    in total coverage (ties may reorder picks of equal gain).

    The textbook greedy is replayed along the lazy order: at every step
    the lazy pick must be one the textbook greedy could make (its gain
    is the largest fresh gain of any remaining site), and the lazy run
    must stop exactly when no site adds coverage.  A different choice
    among tied sites can change every later gain, so the two gain
    profiles are compared under the lazy run's own tie-breaks.
    """
    order, gains = greedy_set_cover(inc)

    def fresh_gains(covered, remaining):
        return {
            site: int(np.count_nonzero(~covered[inc.site_entities(site)]))
            for site in sorted(remaining)
        }

    covered = np.zeros(inc.n_entities, dtype=bool)
    remaining = set(range(inc.n_sites))
    for site, gain in zip(order.tolist(), gains.tolist()):
        fresh = fresh_gains(covered, remaining)
        assert site in fresh  # no site is picked twice
        assert gain == fresh[site] == max(fresh.values()) > 0
        covered[inc.site_entities(site)] = True
        remaining.discard(site)
    assert max(fresh_gains(covered, remaining).values(), default=0) == 0
