"""The "perfect" set-expansion algorithm over an entity–site incidence.

One iteration maps a set of known entities to every site mentioning any
of them, then to every entity those sites mention.  Section 5 of the
paper derives two properties this module lets us verify empirically:

- starting from any seed, the algorithm discovers exactly the seed's
  connected component(s) of the bipartite graph, and
- "starting from any seed set, the number of iterations it takes to
  extract all the entities is bounded by d/2" where d is the diameter.

Real systems (Flint, KnowItAll, set-expansion methods) approximate this
with search engines and noisy extraction; the perfect variant is the
upper bound the paper reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.incidence import BipartiteIncidence, transpose_csr

__all__ = ["BootstrapExpansion", "ExpansionTrace"]


@dataclass(frozen=True)
class ExpansionTrace:
    """History of one bootstrapping run.

    Attributes:
        entity_counts: Known entities after each iteration (cumulative;
            index 0 is the seed set size).
        site_counts: Discovered sites after each iteration.
        iterations: Iterations executed until the frontier emptied.
        entities: Final known-entity index array (sorted).
        sites: Final discovered-site index array (sorted).
    """

    entity_counts: list[int]
    site_counts: list[int]
    iterations: int
    entities: np.ndarray
    sites: np.ndarray

    def entity_fraction(self, n_entities: int) -> float:
        """Fraction of the database discovered."""
        if n_entities <= 0:
            raise ValueError("n_entities must be positive")
        return len(self.entities) / n_entities


class BootstrapExpansion:
    """Runs perfect set expansion over a fixed incidence.

    Precomputes the entity→sites transpose of the CSR so each iteration
    is two vectorized gathers.
    """

    def __init__(self, incidence: BipartiteIncidence) -> None:
        self.incidence = incidence
        self._entity_ptr, self._entity_sites = transpose_csr(incidence)

    def sites_of_entities(self, entities: np.ndarray) -> np.ndarray:
        """All sites mentioning any of ``entities`` (sorted, unique)."""
        entities = np.asarray(entities, dtype=np.int64)
        starts = self._entity_ptr[entities]
        counts = self._entity_ptr[entities + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        bounds = np.cumsum(counts)
        gather = (
            np.arange(total)
            - np.repeat(bounds - counts, counts)
            + np.repeat(starts, counts)
        )
        return np.unique(self._entity_sites[gather])

    def entities_of_sites(self, sites: np.ndarray) -> np.ndarray:
        """All entities mentioned by any of ``sites`` (sorted, unique)."""
        sites = np.asarray(sites, dtype=np.int64)
        ptr = self.incidence.site_ptr
        starts = ptr[sites]
        counts = ptr[sites + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        bounds = np.cumsum(counts)
        gather = (
            np.arange(total)
            - np.repeat(bounds - counts, counts)
            + np.repeat(starts, counts)
        )
        return np.unique(self.incidence.entity_idx[gather])

    def run(
        self,
        seed_entities: Sequence[int] | Iterable[int],
        max_iterations: int | None = None,
    ) -> ExpansionTrace:
        """Expand from a seed set until no new entities appear.

        Args:
            seed_entities: Entity indices to start from.
            max_iterations: Optional cap (default: run to fixpoint).

        Returns:
            The expansion trace.
        """
        entities = np.unique(np.asarray(list(seed_entities), dtype=np.int64))
        if len(entities) == 0:
            raise ValueError("seed set must be non-empty")
        if entities.min() < 0 or entities.max() >= self.incidence.n_entities:
            raise ValueError("seed entity index out of range")
        sites = np.empty(0, dtype=np.int64)
        entity_counts = [len(entities)]
        site_counts = [0]
        iterations = 0
        cap = max_iterations if max_iterations is not None else np.inf
        while iterations < cap:
            new_sites = self.sites_of_entities(entities)
            new_entities = self.entities_of_sites(new_sites)
            merged_entities = np.union1d(entities, new_entities)
            merged_sites = np.union1d(sites, new_sites)
            progressed = len(merged_entities) > len(entities) or len(
                merged_sites
            ) > len(sites)
            entities, sites = merged_entities, merged_sites
            if not progressed:
                break
            iterations += 1
            entity_counts.append(len(entities))
            site_counts.append(len(sites))
        return ExpansionTrace(
            entity_counts=entity_counts,
            site_counts=site_counts,
            iterations=iterations,
            entities=entities,
            sites=sites,
        )

    def random_seed_trial(
        self,
        seed_size: int,
        rng: np.random.Generator | int,
        max_iterations: int | None = None,
    ) -> ExpansionTrace:
        """Run from a uniformly random seed set of mentioned entities.

        The paper's robustness claim: "any seed set of structured
        entities will contain, with high probability, at least one
        entity from the largest component".
        """
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        mentioned = self.incidence.mentioned_entities()
        if len(mentioned) == 0:
            raise ValueError("incidence has no mentioned entities")
        seed_size = min(seed_size, len(mentioned))
        seeds = rng.choice(mentioned, size=seed_size, replace=False)
        return self.run(seeds, max_iterations=max_iterations)
