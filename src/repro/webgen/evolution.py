"""Temporal evolution of the web corpus and re-crawl scheduling.

The paper cites "crawling the web: discovery and *maintenance* of
large-scale web data" — a crawled snapshot decays as sites add, drop,
and change content.  This module evolves an incidence through discrete
epochs and measures what the decay does to an extraction system that
does not (or selectively does) re-crawl:

- :class:`CorpusEvolver` applies per-epoch churn: each existing edge
  survives with probability ``1 - edge_drop_rate``; each site gains new
  popularity-biased entities at ``edge_add_rate``; whole tail sites die
  and are replaced at ``site_turnover_rate``.
- :func:`staleness_curve` — the fraction of a frozen snapshot's edges
  still live after k epochs (how fast an un-maintained database rots).
- :func:`recrawl_comparison` — coverage after several epochs under
  re-crawl policies (none / random / largest-first) with a fixed
  per-epoch re-crawl budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.incidence import BipartiteIncidence, sorted_unique

__all__ = ["CorpusEvolver", "recrawl_comparison", "staleness_curve"]


@dataclass(frozen=True)
class CorpusEvolver:
    """Per-epoch churn model over an incidence.

    Attributes:
        edge_drop_rate: Probability an existing (site, entity) mention
            disappears in one epoch.
        edge_add_rate: New mentions per site per epoch, as a fraction of
            its current size (popularity-biased sampling).
        site_turnover_rate: Fraction of tail sites (smallest decile)
            replaced with fresh tail sites each epoch.
        popularity_exponent: Bias of newly added mentions.
    """

    edge_drop_rate: float = 0.05
    edge_add_rate: float = 0.05
    site_turnover_rate: float = 0.02
    popularity_exponent: float = 0.8

    def __post_init__(self) -> None:
        for rate in (self.edge_drop_rate, self.edge_add_rate, self.site_turnover_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be in [0, 1]")

    def step(
        self, incidence: BipartiteIncidence, rng: np.random.Generator | int
    ) -> BipartiteIncidence:
        """Evolve one epoch; returns a new incidence (same entity space)."""
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        n = incidence.n_entities
        weights = (np.arange(n) + 1.0) ** -self.popularity_exponent
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]

        sizes = incidence.site_sizes()
        order = incidence.sites_by_size()
        tail_start = int(0.9 * len(order))
        tail_sites = set(order[tail_start:].tolist())
        dying = {
            s
            for s in tail_sites
            if rng.random() < self.site_turnover_rate
        }

        sites: list[tuple[str, list[int]]] = []
        for s in range(incidence.n_sites):
            host = incidence.site_hosts[s]
            if s in dying:
                # replaced by a fresh tail site with new content
                size = max(1, int(sizes[s]))
                picks = np.searchsorted(cdf, rng.random(size * 2), side="right")
                entities = sorted_unique(picks)[:size].tolist()
                sites.append((f"new-{host}", entities))
                continue
            entities = incidence.site_entities(s)
            keep = rng.random(len(entities)) >= self.edge_drop_rate
            surviving = entities[keep].tolist()
            n_new = int(round(self.edge_add_rate * len(entities)))
            if n_new:
                picks = np.searchsorted(cdf, rng.random(n_new * 2), side="right")
                surviving.extend(sorted_unique(picks)[:n_new].tolist())
            sites.append((host, surviving))
        return BipartiteIncidence.from_site_lists(
            n_entities=n, sites=sites, entity_ids=incidence.entity_ids
        )

    def evolve(
        self,
        incidence: BipartiteIncidence,
        epochs: int,
        rng: np.random.Generator | int = 0,
    ) -> list[BipartiteIncidence]:
        """Evolve several epochs; returns the snapshot after each."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        snapshots = []
        current = incidence
        for _ in range(epochs):
            current = self.step(current, rng)
            snapshots.append(current)
        return snapshots


def _edge_set(incidence: BipartiteIncidence) -> set[tuple[str, int]]:
    edges = set()
    for s in range(incidence.n_sites):
        host = incidence.site_hosts[s]
        for entity in incidence.site_entities(s).tolist():
            edges.add((host, int(entity)))
    return edges


def staleness_curve(
    snapshots: list[BipartiteIncidence], original: BipartiteIncidence
) -> np.ndarray:
    """Fraction of the original snapshot's edges still live per epoch.

    An extraction database built from ``original`` and never refreshed
    contains exactly these still-true facts.
    """
    baseline = _edge_set(original)
    if not baseline:
        raise ValueError("original snapshot has no edges")
    fractions = np.empty(len(snapshots))
    for i, snapshot in enumerate(snapshots):
        live = _edge_set(snapshot)
        fractions[i] = len(baseline & live) / len(baseline)
    return fractions


def recrawl_comparison(
    original: BipartiteIncidence,
    evolver: CorpusEvolver,
    epochs: int = 5,
    budget_per_epoch: int = 20,
    rng: np.random.Generator | int = 0,
) -> dict[str, float]:
    """Final fact accuracy under three re-crawl policies.

    Each epoch the world evolves; the extractor may re-crawl (refresh
    its copy of) ``budget_per_epoch`` sites.  Policies: ``none``,
    ``random``, ``largest_first``.  Returns the fraction of the
    extractor's final database that is still true in the final world.
    """
    if epochs < 1 or budget_per_epoch < 0:
        raise ValueError("epochs must be >= 1 and budget non-negative")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))

    results: dict[str, float] = {}
    for policy in ("none", "random", "largest_first"):
        world = original
        # extractor's believed edges per host
        believed: dict[str, set[int]] = {
            original.site_hosts[s]: set(original.site_entities(s).tolist())
            for s in range(original.n_sites)
        }
        policy_rng = np.random.default_rng(rng.integers(2**31))
        for __ in range(epochs):
            world = evolver.step(world, policy_rng)
            if policy == "none" or budget_per_epoch == 0:
                continue
            if policy == "largest_first":
                refresh = world.sites_by_size()[:budget_per_epoch]
            else:
                refresh = policy_rng.permutation(world.n_sites)[:budget_per_epoch]
            for s in refresh.tolist():
                believed[world.site_hosts[s]] = set(
                    world.site_entities(int(s)).tolist()
                )
        live = _edge_set(world)
        believed_edges = {
            (host, entity)
            for host, entities in believed.items()
            for entity in entities
        }
        if not believed_edges:
            results[policy] = 0.0
        else:
            results[policy] = len(believed_edges & live) / len(believed_edges)
    return results
