"""Tests for traffic log generation and unique-cookie aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.demandmodel import get_site_profile
from repro.traffic.logs import TrafficLog, TrafficLogGenerator, unique_cookie_demand
from repro.traffic.urls import parse_entity_url


@pytest.fixture(scope="module")
def generator():
    return TrafficLogGenerator(
        get_site_profile("yelp"), n_entities=300, n_cookies=500, seed=11
    )


def test_log_shapes(generator):
    log = generator.search_log(2000)
    assert log.n_events == 2000
    assert log.site == "yelp"
    assert log.source == "search"
    assert log.entity.min() >= 0 and log.entity.max() < 300
    assert log.cookie.min() >= 0 and log.cookie.max() < 500
    assert log.month.min() >= 0 and log.month.max() < 12


def test_browse_log_source(generator):
    assert generator.browse_log(100).source == "browse"


def test_validation():
    with pytest.raises(ValueError):
        TrafficLogGenerator(get_site_profile("yelp"), n_entities=0)
    with pytest.raises(ValueError):
        TrafficLogGenerator(get_site_profile("yelp"), n_entities=10, n_cookies=0)
    gen = TrafficLogGenerator(get_site_profile("yelp"), n_entities=10, seed=1)
    with pytest.raises(ValueError):
        gen.search_log(0)


def test_iter_urls_parse_back(generator):
    log = generator.search_log(50)
    for (url, cookie, month), entity in zip(log.iter_urls(), log.entity.tolist()):
        parsed = parse_entity_url(url)
        assert parsed is not None
        assert parsed[0] == "yelp"
        assert parsed[1] == f"business-{entity:08d}"


def test_unique_cookie_demand_browse_counts_pairs():
    log = TrafficLog(
        site="yelp",
        source="browse",
        n_entities=3,
        entity=np.array([0, 0, 0, 1]),
        cookie=np.array([5, 5, 6, 5]),
        month=np.array([0, 1, 2, 3]),
    )
    demand = unique_cookie_demand(log)
    # entity 0: cookies {5, 6} -> 2; entity 1: cookie {5} -> 1
    assert demand.tolist() == [2.0, 1.0, 0.0]


def test_unique_cookie_demand_search_counts_per_month():
    log = TrafficLog(
        site="yelp",
        source="search",
        n_entities=2,
        entity=np.array([0, 0, 0]),
        cookie=np.array([5, 5, 5]),
        month=np.array([0, 0, 3]),
    )
    demand = unique_cookie_demand(log)
    # cookie 5 visited in months 0 and 3 -> 2 monthly uniques
    assert demand.tolist() == [2.0, 0.0]


def test_parse_urls_path_matches_arrays(generator):
    log = generator.search_log(300)
    direct = unique_cookie_demand(log)
    key_to_index = {f"business-{i:08d}": i for i in range(300)}
    parsed = unique_cookie_demand(log, parse_urls=True, key_to_index=key_to_index)
    assert np.array_equal(direct, parsed)


def test_parse_urls_requires_mapping(generator):
    log = generator.search_log(10)
    with pytest.raises(ValueError):
        unique_cookie_demand(log, parse_urls=True)


def test_popular_entities_receive_more_demand(generator):
    log = generator.search_log(20000)
    demand = unique_cookie_demand(log)
    weights = generator.population.search_weights
    top = np.argsort(weights)[::-1][:30]
    bottom = np.argsort(weights)[:30]
    assert demand[top].mean() > demand[bottom].mean()


def test_deterministic_logs():
    a = TrafficLogGenerator(get_site_profile("imdb"), 100, seed=3).search_log(500)
    b = TrafficLogGenerator(get_site_profile("imdb"), 100, seed=3).search_log(500)
    assert np.array_equal(a.entity, b.entity)
    assert np.array_equal(a.cookie, b.cookie)


def np_unique_cookie_demand(log: TrafficLog) -> np.ndarray:
    """The array path as first written, over ``np.unique``: the reference
    the sort-based uniques must reproduce exactly."""
    demand = np.zeros(log.n_entities, dtype=np.float64)
    if log.n_events == 0:
        return demand
    cookie_space = np.int64(log.cookie.max()) + 1
    if log.source == "search":
        pair = (log.entity * 12 + log.month) * cookie_space + log.cookie
        entity_of_pair = np.unique(pair) // cookie_space // 12
    else:
        pair = log.entity * cookie_space + log.cookie
        entity_of_pair = np.unique(pair) // cookie_space
    np.add.at(demand, entity_of_pair, 1.0)
    return demand


@st.composite
def random_logs(draw):
    n_entities = draw(st.integers(min_value=1, max_value=60))
    n_events = draw(st.integers(min_value=0, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n_cookies = draw(st.integers(min_value=1, max_value=5000))
    return TrafficLog(
        site="yelp",
        source=draw(st.sampled_from(["search", "browse"])),
        n_entities=n_entities,
        entity=rng.integers(n_entities, size=n_events).astype(np.int64),
        cookie=rng.integers(n_cookies, size=n_events).astype(np.int64),
        month=rng.integers(12, size=n_events).astype(np.int64),
    )


@given(random_logs())
@settings(max_examples=150, deadline=None)
def test_property_demand_equals_np_unique_reference(log):
    assert np.array_equal(
        unique_cookie_demand(log), np_unique_cookie_demand(log)
    )


@pytest.mark.parametrize("source", ["search", "browse"])
def test_generated_demand_equals_np_unique_reference(generator, source):
    log = generator.search_log(5000) if source == "search" else generator.browse_log(5000)
    assert np.array_equal(unique_cookie_demand(log), np_unique_cookie_demand(log))
