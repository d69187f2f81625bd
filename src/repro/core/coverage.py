"""k-coverage analysis (Section 3.3 of the paper, Figures 1–4).

Given websites ordered by the number of entities they mention, the
*k-coverage* of the top-t sites is the fraction of database entities
present on at least k of those sites.  1-coverage measures how fast a
union of sites approaches the full database; k > 1 measures how much
redundancy is available — the paper's motivation being that an
extraction system may want each fact corroborated by k independent
sources.

The aggregate-review variant (Figure 4(b)) counts *pages* instead of
entities: the fraction of all review pages on the Web hosted by the
top-n sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.incidence import BipartiteIncidence, sorted_unique

__all__ = [
    "CoverageCurves",
    "aggregate_coverage_curve",
    "coverage_at",
    "default_checkpoints",
    "k_coverage_curves",
    "sites_needed_for_coverage",
]


def default_checkpoints(n_sites: int, per_decade: int = 16) -> np.ndarray:
    """Log-spaced site-count checkpoints 1..n_sites (paper plots are log-x)."""
    if n_sites < 1:
        return np.empty(0, dtype=np.int64)
    decades = max(np.log10(n_sites), 1e-9)
    grid = np.logspace(0, np.log10(n_sites), int(decades * per_decade) + 2)
    return sorted_unique(np.clip(np.round(grid).astype(np.int64), 1, n_sites))


@dataclass(frozen=True)
class CoverageCurves:
    """k-coverage of the top-t sites, for each k and checkpoint t.

    Attributes:
        checkpoints: Site counts t at which coverage was recorded.
        ks: Redundancy levels, e.g. ``(1, ..., 10)`` as in the figures.
        coverage: ``float64[len(ks), len(checkpoints)]`` fractions of the
            entity database covered by >= k of the top-t sites.
        order: Site indices in the ranking used (best first).
    """

    checkpoints: np.ndarray
    ks: tuple[int, ...]
    coverage: np.ndarray
    order: np.ndarray

    def curve(self, k: int) -> np.ndarray:
        """The coverage series for one redundancy level."""
        try:
            row = self.ks.index(k)
        except ValueError:
            raise KeyError(f"k={k} not computed; available: {self.ks}") from None
        return self.coverage[row]

    def final_coverage(self, k: int) -> float:
        """Coverage of *all* sites at redundancy k."""
        return float(self.curve(k)[-1])


def k_coverage_curves(
    incidence: BipartiteIncidence,
    ks: Sequence[int] = tuple(range(1, 11)),
    checkpoints: Sequence[int] | None = None,
    order: np.ndarray | None = None,
) -> CoverageCurves:
    """Compute k-coverage curves over a site ranking.

    Args:
        incidence: The entity–site incidence.
        ks: Redundancy levels (the paper uses 1..10).
        checkpoints: Site counts at which to record coverage; defaults
            to a log-spaced grid matching the paper's log-x plots.
        order: Site ranking (distinct site indices, best first);
            defaults to the paper's decreasing-entity-count order.
            Sites left out of it are never counted.

    Returns:
        The recorded curves.  Array operations throughout, O(E log E)
        for one sort of the ranked edges by (entity, rank) plus
        O(|ks| * (n_entities + |order|)): an entity is covered k times
        from the rank of its k-th mention on.

    Raises:
        ValueError: Bad ``ks`` or checkpoints, or ``order`` repeats a
            site.
    """
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive integers")
    if order is None:
        order = incidence.sites_by_size()
    else:
        order = np.asarray(order, dtype=np.int64)
    if checkpoints is None:
        checkpoint_arr = default_checkpoints(len(order))
    else:
        checkpoint_arr = sorted_unique(np.asarray(checkpoints, dtype=np.int64))
        if len(checkpoint_arr) and (
            checkpoint_arr[0] < 1 or checkpoint_arr[-1] > len(order)
        ):
            raise ValueError("checkpoints must lie in [1, n_ranked_sites]")

    n = incidence.n_entities
    n_ranked = len(order)
    # rank[s]: 1-based position of site s in the order, 0 if unranked.
    rank = np.zeros(incidence.n_sites, dtype=np.int64)
    rank[order] = np.arange(1, n_ranked + 1, dtype=np.int64)
    if np.count_nonzero(rank) != n_ranked:
        raise ValueError("order must not repeat a site")
    # Every ranked edge as one (entity, rank) key, sorted: each
    # entity's mentions in the order its sites are ranked.
    edge_rank = np.repeat(rank, incidence.site_sizes())
    ranked = edge_rank > 0
    entities = incidence.entity_idx[ranked]
    mentions = np.bincount(entities, minlength=n)
    first = np.cumsum(mentions) - mentions
    keys = entities * (n_ranked + 1)
    keys += edge_rank[ranked]
    keys.sort()
    coverage = np.zeros((len(ks), len(checkpoint_arr)))
    denominator = max(n, 1)
    for row, k in enumerate(ks):
        # An entity reaches k mentions at the rank of its k-th one; the
        # running count of those ranks is the entities covered k times.
        kth = keys[first[mentions >= k] + (k - 1)] % (n_ranked + 1)
        reached = np.cumsum(np.bincount(kth, minlength=n_ranked + 1))
        coverage[row] = reached[checkpoint_arr] / denominator

    return CoverageCurves(
        checkpoints=checkpoint_arr, ks=ks, coverage=coverage, order=order
    )


def coverage_at(
    incidence: BipartiteIncidence,
    top_t: int,
    k: int = 1,
    order: np.ndarray | None = None,
) -> float:
    """k-coverage of exactly the top ``top_t`` sites."""
    if top_t < 0:
        raise ValueError("top_t must be non-negative")
    if top_t == 0:
        return 0.0
    curves = k_coverage_curves(
        incidence, ks=(k,), checkpoints=[min(top_t, incidence.n_sites)], order=order
    )
    return float(curves.coverage[0, 0])


def sites_needed_for_coverage(
    incidence: BipartiteIncidence,
    target: float,
    k: int = 1,
    order: np.ndarray | None = None,
) -> int | None:
    """Smallest t with k-coverage(top-t) >= target, or None if unreachable.

    This answers the paper's headline quantifications directly, e.g.
    "we need to access at least 1000 websites to get a coverage of 90%".
    Runs with per-site granularity (every t is a checkpoint).
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError("target must be a fraction in [0, 1]")
    if order is None:
        order = incidence.sites_by_size()
    counts = np.zeros(incidence.n_entities, dtype=np.int64)
    reached = 0
    needed = int(np.ceil(target * incidence.n_entities))
    if needed == 0:
        return 0
    for t, site in enumerate(order, start=1):
        entities = incidence.site_entities(int(site))
        if len(entities):
            new_counts = counts[entities] + 1
            counts[entities] = new_counts
            reached += int(np.count_nonzero(new_counts == k))
            if reached >= needed:
                return t
    return None


def aggregate_coverage_curve(
    incidence: BipartiteIncidence,
    checkpoints: Sequence[int] | None = None,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of all pages held by the top-n sites (Figure 4(b)).

    Uses edge multiplicities as page counts (1 per edge when unset).

    Returns:
        ``(checkpoints, fractions)`` arrays.
    """
    if order is None:
        order = incidence.sites_by_size()
    else:
        order = np.asarray(order, dtype=np.int64)
    if checkpoints is None:
        checkpoint_arr = default_checkpoints(len(order))
    else:
        checkpoint_arr = sorted_unique(np.asarray(checkpoints, dtype=np.int64))
    sizes = incidence.site_sizes()
    if incidence.multiplicity is None:
        pages = sizes.copy()
    else:
        # Per-site page totals in one pass: np.add.reduceat over the CSR
        # row pointers.  Empty sites are excluded from the reduce (a
        # repeated index would mis-sum) and stay zero.
        pages = np.zeros(incidence.n_sites, dtype=np.int64)
        nonempty = sizes > 0
        if nonempty.any():
            starts = incidence.site_ptr[:-1][nonempty]
            pages[nonempty] = np.add.reduceat(incidence.multiplicity, starts)
    pages_per_site = pages[order]
    total = max(int(pages_per_site.sum()), 1)
    cumulative = np.cumsum(pages_per_site)
    fractions = cumulative[checkpoint_arr - 1] / total
    return checkpoint_arr, fractions
