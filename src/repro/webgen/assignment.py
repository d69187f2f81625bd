"""Sampling the entity–site incidence from the generative model.

Given a calibrated :class:`~repro.webgen.sitemodel.SiteSizeModel`, this
module decides *which* entities each site mentions:

- **Global sites** sample entities with popularity bias: entity at
  popularity rank r is drawn with weight ``(r+1)**-popularity_exponent``
  (Zipf).  Head aggregators therefore mention nearly everything, while
  small global sites skew popular — which is what makes k-coverage
  curves for k > 1 so much slower to saturate than k = 1 (Figures 1–4).
- **Niche sites** (a fraction of the tail) model local aggregators —
  the paper's "city chambers of commerce websites, or even individual
  critics blogs".  Each samples only from one locality's entities.
- **Island sites** realize the paper's observation that disconnected
  components "contain at most one or two entities mentioned only by
  tail web sites": a small fraction of the least-popular entities is
  split into islands of one or two, each mentioned only by its own tiny
  site(s).  Islands are exactly the extra connected components counted
  in Table 2 and removed-top-k robustness of Figure 9.

The output is a :class:`~repro.core.incidence.BipartiteIncidence` whose
entity index equals the entity's popularity rank (0 = most popular);
the entity database rows are exchangeable, so this loses no generality
and keeps the analyses array-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.incidence import BipartiteIncidence, sorted_unique
from repro.webgen.sitemodel import SiteSizeModel

__all__ = ["AssignmentModel", "attach_review_multiplicity"]


def _calibrate_bernoulli_scale(
    weights: np.ndarray, target: float, iterations: int = 60
) -> float:
    """Find a > 0 with ``sum(min(1, a * weights)) == target`` (bisection).

    The loop ends early once no float lies strictly between ``lo`` and
    ``hi``: ``mid`` then equals one of them, and since ``lo`` always
    falls short of ``target`` and ``hi`` always reaches it, every later
    iteration would assign the value already held.  The result is the
    one all ``iterations`` would return, bit for bit.
    """
    if target >= len(weights):
        return np.inf
    lo = 0.0
    hi = target / float(weights.sum())
    while np.minimum(1.0, hi * weights).sum() < target:
        hi *= 2.0
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if np.minimum(1.0, mid * weights).sum() < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass
class AssignmentModel:
    """Parameters of the entity→site assignment.

    Attributes:
        size_model: Calibrated site-size curve.
        popularity_exponent: Zipf exponent of entity popularity used to
            bias site content toward popular entities.  Larger values
            concentrate tail sites on head entities, which *spreads out*
            coverage of tail entities — the homepage profiles use larger
            exponents than the phone profiles.
        island_fraction: Fraction of entities placed on isolated
            islands (never sampled by global or niche sites).
        max_island_size: Maximum entities per island (the paper observes
            one or two).
        extra_island_site_rate: Probability an island gets a second site
            of its own (pure redundancy inside the component).
        niche_fraction: Probability a tail site is niche (local) rather
            than global.
        n_localities: Number of localities niche sites draw from.
        niche_size_threshold: Sites at most this large may be niche.
        min_island_entities: When islands are enabled at all, place at
            least this many entities on them.  Scaled-down corpora would
            otherwise round the paper's sub-percent island fractions to
            zero and lose the multi-component phenomenon entirely.
        host_suffix: Domain suffix used when minting host names.
    """

    size_model: SiteSizeModel
    popularity_exponent: float = 0.8
    island_fraction: float = 0.002
    max_island_size: int = 2
    extra_island_site_rate: float = 0.2
    niche_fraction: float = 0.3
    n_localities: int = 200
    niche_size_threshold: int = 20
    min_island_entities: int = 4
    host_suffix: str = "example.com"

    def __post_init__(self) -> None:
        if not 0.0 <= self.island_fraction < 0.5:
            raise ValueError("island_fraction must be in [0, 0.5)")
        if self.max_island_size < 1:
            raise ValueError("max_island_size must be >= 1")
        if not 0.0 <= self.niche_fraction <= 1.0:
            raise ValueError("niche_fraction must be in [0, 1]")
        if self.n_localities < 1:
            raise ValueError("n_localities must be >= 1")

    # -- sampling helpers ------------------------------------------------------

    @staticmethod
    def _sample_biased(
        rng: np.random.Generator,
        cdf: np.ndarray,
        members: np.ndarray,
        count: int,
    ) -> np.ndarray:
        """Sample ~count distinct members with popularity bias.

        Uses with-replacement draws against the member cdf followed by
        deduplication; overdraws by 30% to compensate.  May return
        slightly fewer than ``count`` (acceptable: site sizes are a
        model target, not an invariant).
        """
        if count >= len(members):
            return members
        draws = min(len(members) * 4, int(count * 1.3) + 3)
        picks = np.searchsorted(cdf, rng.random(draws), side="right")
        unique = sorted_unique(picks)
        if len(unique) > count:
            unique = unique[rng.permutation(len(unique))[:count]]
        return members[unique]

    def _sample_global(
        self,
        rng: np.random.Generator,
        weights: np.ndarray,
        cdf: np.ndarray,
        members: np.ndarray,
        count: int,
        scales: dict[int, float],
    ) -> np.ndarray:
        """Sample a global site's entities; exact-size Bernoulli for head sites.

        ``scales`` memoises the Bernoulli scale per site size: it is a
        pure function of (weights, count), and one corpus draws every
        global site against the same weights.
        """
        if count < 0.02 * len(members):
            return self._sample_biased(rng, cdf, members, count)
        scale = scales.get(count)
        if scale is None:
            scale = scales[count] = _calibrate_bernoulli_scale(weights, float(count))
        include_prob = np.minimum(1.0, scale * weights)
        mask = rng.random(len(members)) < include_prob
        return members[mask]

    # -- main entry point --------------------------------------------------------

    def generate(self, rng: np.random.Generator | int) -> BipartiteIncidence:
        """Sample the full incidence structure.

        Args:
            rng: A :class:`numpy.random.Generator` or an integer seed.

        Returns:
            The sampled incidence.  Sites 0..S-1 are the size-model
            sites in decreasing size order; island sites follow.
        """
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        n_entities = self.size_model.n_entities
        sizes = self.size_model.sizes()

        n_island_entities = int(round(self.island_fraction * n_entities))
        if self.island_fraction > 0:
            n_island_entities = max(n_island_entities, self.min_island_entities)
        n_regular = n_entities - n_island_entities
        if n_regular < 1:
            raise ValueError("island_fraction leaves no regular entities")

        # Popularity weights over regular entities (index = popularity rank).
        regular = np.arange(n_regular, dtype=np.int64)
        weights = (regular + 1.0) ** -self.popularity_exponent
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]

        # Localities partition the regular entities uniformly.
        localities = rng.integers(self.n_localities, size=n_regular)
        locality_members: list[np.ndarray] = []
        locality_cdfs: list[np.ndarray] = []
        for loc in range(self.n_localities):
            members = regular[localities == loc]
            locality_members.append(members)
            if len(members):
                w = weights[members]
                c = np.cumsum(w)
                locality_cdfs.append(c / c[-1])
            else:
                locality_cdfs.append(np.empty(0))

        hosts: list[str] = []
        site_lists: list[np.ndarray] = []
        scales: dict[int, float] = {}
        niche_flags = (sizes <= self.niche_size_threshold) & (
            rng.random(len(sizes)) < self.niche_fraction
        )
        for rank, size in enumerate(sizes):
            size = int(size)
            if niche_flags[rank]:
                loc = int(rng.integers(self.n_localities))
                members = locality_members[loc]
                if len(members) == 0:
                    entities = np.empty(0, dtype=np.int64)
                else:
                    entities = self._sample_biased(
                        rng, locality_cdfs[loc], members, size
                    )
                hosts.append(f"local-{loc:04d}-{rank:06d}.{self.host_suffix}")
            else:
                entities = self._sample_global(
                    rng, weights, cdf, regular, size, scales
                )
                hosts.append(f"site-{rank:06d}.{self.host_suffix}")
            site_lists.append(np.asarray(entities, dtype=np.int64))

        # Islands: partition the least popular entities into groups of
        # 1..max_island_size, each mentioned only by its own site(s).
        island_entities = np.arange(n_regular, n_entities, dtype=np.int64)
        cursor = 0
        island_no = 0
        while cursor < len(island_entities):
            size = int(rng.integers(1, self.max_island_size + 1))
            group = island_entities[cursor:cursor + size]
            cursor += size
            n_sites_here = 1 + int(rng.random() < self.extra_island_site_rate)
            for j in range(n_sites_here):
                hosts.append(
                    f"island-{island_no:06d}-{j}.{self.host_suffix}"
                )
                site_lists.append(group.copy())
            island_no += 1

        ptr = np.zeros(len(site_lists) + 1, dtype=np.int64)
        ptr[1:] = np.cumsum([len(lst) for lst in site_lists])
        entity_idx = (
            np.concatenate(site_lists)
            if site_lists
            else np.empty(0, dtype=np.int64)
        )
        return BipartiteIncidence(
            n_entities=n_entities,
            site_hosts=hosts,
            site_ptr=ptr,
            entity_idx=entity_idx,
        )


def attach_review_multiplicity(
    incidence: BipartiteIncidence,
    rng: np.random.Generator | int,
    base_extra: float = 2.0,
    site_size_power: float = 0.35,
    popularity_power: float = 0.5,
) -> BipartiteIncidence:
    """Attach pages-per-edge counts modelling multiple reviews.

    Reviews are an *open* attribute (Section 4): one site can host many
    review pages about the same restaurant.  We model the extra page
    count on edge (site s, entity e) as Poisson with mean

    ``base_extra * (size_s / max_size) ** site_size_power
    * ((rank_e + 1) ** -popularity_power)``

    so head aggregators hold many reviews of popular restaurants while a
    blog's single mention stays a single page.  This drives the
    Figure 4(b) aggregate-review curve, which the paper finds more
    spread out than the entity-coverage curve of Figure 4(a).

    Returns:
        A new incidence sharing the structure of ``incidence`` with a
        fresh ``multiplicity`` array.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if base_extra < 0:
        raise ValueError("base_extra must be non-negative")
    sizes = incidence.site_sizes().astype(np.float64)
    max_size = max(float(sizes.max()), 1.0) if len(sizes) else 1.0
    site_factor = (sizes / max_size) ** site_size_power
    edge_site = np.repeat(np.arange(incidence.n_sites), incidence.site_sizes())
    entity_factor = (incidence.entity_idx + 1.0) ** -popularity_power
    lam = base_extra * site_factor[edge_site] * entity_factor
    multiplicity = 1 + rng.poisson(lam)
    return BipartiteIncidence(
        n_entities=incidence.n_entities,
        site_hosts=list(incidence.site_hosts),
        site_ptr=incidence.site_ptr.copy(),
        entity_idx=incidence.entity_idx.copy(),
        multiplicity=multiplicity.astype(np.int64),
        entity_ids=incidence.entity_ids,
    )
