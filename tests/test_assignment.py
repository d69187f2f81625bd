"""Tests for the entity→site assignment model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import EntitySiteGraph
from repro.webgen.assignment import (
    AssignmentModel,
    _calibrate_bernoulli_scale,
    attach_review_multiplicity,
)
from repro.webgen.profiles import PROFILES
from repro.webgen.sitemodel import SiteSizeModel


def small_model(**overrides) -> AssignmentModel:
    size_model = SiteSizeModel.calibrated(
        n_entities=500, n_sites=800, head_coverage=0.5, target_edges_per_entity=8.0
    )
    defaults = dict(
        size_model=size_model,
        popularity_exponent=0.7,
        island_fraction=0.01,
        niche_fraction=0.3,
        n_localities=20,
    )
    defaults.update(overrides)
    return AssignmentModel(**defaults)


def test_deterministic_given_seed():
    a = small_model().generate(42)
    b = small_model().generate(42)
    assert a.site_hosts == b.site_hosts
    assert np.array_equal(a.entity_idx, b.entity_idx)
    assert np.array_equal(a.site_ptr, b.site_ptr)


def test_edge_budget_respected():
    inc = small_model().generate(1)
    target = 8.0 * 500
    assert 0.7 * target <= inc.n_edges <= 1.2 * target


def test_head_site_near_target_size():
    inc = small_model().generate(2)
    # first (largest) model site should mention close to half the entities
    assert inc.site_sizes()[0] >= 0.4 * 500


def test_island_entities_isolated():
    inc = small_model(island_fraction=0.02).generate(3)
    island_hosts = [h for h in inc.site_hosts if h.startswith("island-")]
    assert island_hosts, "expected island sites"
    summary = EntitySiteGraph(inc).components()
    assert summary.n_components > 1
    # islands hold 1-2 entities each
    for s, host in enumerate(inc.site_hosts):
        if host.startswith("island-"):
            assert 1 <= len(inc.site_entities(s)) <= 2


def test_min_island_floor_applies():
    inc = small_model(island_fraction=0.0001, min_island_entities=4).generate(4)
    island_entities = set()
    for s, host in enumerate(inc.site_hosts):
        if host.startswith("island-"):
            island_entities.update(inc.site_entities(s).tolist())
    assert len(island_entities) >= 4


def test_no_islands_when_fraction_zero():
    inc = small_model(island_fraction=0.0).generate(5)
    assert not any(h.startswith("island-") for h in inc.site_hosts)


def test_niche_sites_use_local_hosts():
    inc = small_model(niche_fraction=1.0, niche_size_threshold=10**9).generate(6)
    assert any(h.startswith("local-") for h in inc.site_hosts)


def test_validation():
    with pytest.raises(ValueError):
        small_model(island_fraction=0.9)
    with pytest.raises(ValueError):
        small_model(max_island_size=0)
    with pytest.raises(ValueError):
        small_model(niche_fraction=1.5)
    with pytest.raises(ValueError):
        small_model(n_localities=0)


def test_popularity_bias():
    """Popular entities (low index) collect more mentions than tail ones."""
    inc = small_model(popularity_exponent=1.0).generate(7)
    counts = inc.entity_mention_counts()
    head_mean = counts[:50].mean()
    tail_mean = counts[-100:].mean()
    assert head_mean > 2 * tail_mean


def test_bernoulli_scale_calibration():
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    scale = _calibrate_bernoulli_scale(weights, 2.0)
    probabilities = np.minimum(1.0, scale * weights)
    assert probabilities.sum() == pytest.approx(2.0, abs=1e-6)


def test_bernoulli_scale_target_at_capacity():
    weights = np.array([1.0, 1.0])
    assert _calibrate_bernoulli_scale(weights, 2.0) == np.inf


def test_review_multiplicity():
    inc = small_model().generate(8)
    with_reviews = attach_review_multiplicity(inc, rng=9, base_extra=2.0)
    assert with_reviews.multiplicity is not None
    assert with_reviews.multiplicity.min() >= 1
    assert with_reviews.total_pages() > with_reviews.n_edges  # some extras
    # structure untouched
    assert np.array_equal(with_reviews.entity_idx, inc.entity_idx)


def test_review_multiplicity_zero_base():
    inc = small_model().generate(10)
    flat = attach_review_multiplicity(inc, rng=11, base_extra=0.0)
    assert flat.total_pages() == flat.n_edges


def test_review_multiplicity_rejects_negative_base():
    inc = small_model().generate(12)
    with pytest.raises(ValueError):
        attach_review_multiplicity(inc, rng=13, base_extra=-1.0)


# -- the calibration memo and its early exit keep every float ----------------


def loop_calibrate(weights, target, iterations=60):
    """The bisection as first written: every one of its iterations."""
    if target >= len(weights):
        return np.inf
    lo = 0.0
    hi = target / float(weights.sum())
    while np.minimum(1.0, hi * weights).sum() < target:
        hi *= 2.0
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if np.minimum(1.0, mid * weights).sum() < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@st.composite
def calibration_cases(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        exponent = draw(st.floats(min_value=0.0, max_value=2.5))
        weights = (np.arange(n) + 1.0) ** -exponent
    else:
        weights = rng.random(n) + 1e-6
    fraction = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([1 - 1e-12, 1 - 1e-9, 1 - 1e-6]),
        )
    )
    offset = draw(st.sampled_from([0.0, 0.5, 1.0, 1e-9]))
    target = max(0.0, fraction * n - offset)
    return weights, target


@given(calibration_cases())
@settings(max_examples=300, deadline=None)
def test_calibration_equals_the_full_bisection(case):
    weights, target = case
    assert _calibrate_bernoulli_scale(weights, target) == loop_calibrate(
        weights, target
    )


def test_calibration_equals_the_full_bisection_near_capacity():
    weights = (np.arange(1000) + 1.0) ** -0.8
    for target in (999.0, 999.5, 999.999999, 1.0, 0.5, 500.0, 1000.0):
        assert _calibrate_bernoulli_scale(weights, target) == loop_calibrate(
            weights, target
        ), target


def unmemoised_sample_global(self, rng, weights, cdf, members, count, scales):
    """``_sample_global`` without the memo, over the full bisection."""
    if count < 0.02 * len(members):
        return self._sample_biased(rng, cdf, members, count)
    include_prob = np.minimum(1.0, loop_calibrate(weights, float(count)) * weights)
    mask = rng.random(len(members)) < include_prob
    return members[mask]


def np_unique_sample_biased(rng, cdf, members, count):
    """``_sample_biased`` over ``np.unique``, as first written."""
    if count >= len(members):
        return members
    draws = min(len(members) * 4, int(count * 1.3) + 3)
    picks = np.searchsorted(cdf, rng.random(draws), side="right")
    unique = np.unique(picks)
    if len(unique) > count:
        unique = unique[rng.permutation(len(unique))[:count]]
    return members[unique]


@pytest.mark.parametrize("key", sorted(PROFILES), ids="/".join)
def test_generate_equals_the_unmemoised_reference(key, monkeypatch):
    profile = PROFILES[key]
    fast = profile.generate("tiny", seed=0)
    monkeypatch.setattr(AssignmentModel, "_sample_global", unmemoised_sample_global)
    monkeypatch.setattr(
        AssignmentModel, "_sample_biased", staticmethod(np_unique_sample_biased)
    )
    reference = profile.generate("tiny", seed=0)
    assert fast.site_hosts == reference.site_hosts
    assert np.array_equal(fast.site_ptr, reference.site_ptr)
    assert np.array_equal(fast.entity_idx, reference.entity_idx)
    if reference.multiplicity is None:
        assert fast.multiplicity is None
    else:
        assert np.array_equal(fast.multiplicity, reference.multiplicity)
