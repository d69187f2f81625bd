"""Entity–site bipartite incidence.

Section 3.1 of the paper reduces "where does structured data live?" to a
single structure: for each website (host), the set of database entities
whose identifying attributes appear on its pages.  Both production paths
in this repository emit this structure —

- the generative web model (:mod:`repro.webgen`) emits it directly, and
- the full pipeline (render HTML → crawl cache → extractors) emits it
  via :class:`repro.extract.runner.ExtractionRunner` —

and every analysis (coverage, set cover, connectivity, discovery)
consumes it.  Edges may carry a *multiplicity*: the number of distinct
pages on the site mentioning the entity, used by the aggregate-review
analysis of Figure 4(b).

The storage is CSR-by-site: ``entity_idx[site_ptr[s]:site_ptr[s+1]]``
are the entity indices mentioned by site ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["BipartiteIncidence", "rank_by_size", "transpose_csr"]


@dataclass
class BipartiteIncidence:
    """CSR-by-site incidence between entities ``[0, n_entities)`` and sites.

    Attributes:
        n_entities: Number of entities in the underlying database.  This
            is the denominator of every coverage metric — entities that
            appear on no site at all still count against coverage, as in
            the paper.
        site_hosts: Host name per site, index-aligned with the CSR rows.
        site_ptr: ``int64[n_sites + 1]`` row pointers.
        entity_idx: ``int64[n_edges]`` entity index per edge.  Within a
            site, entity indices are unique (a site either mentions an
            entity or it does not).
        multiplicity: Optional ``int64[n_edges]`` pages-per-edge counts
            (``>= 1``).  ``None`` means "1 page per edge" everywhere.
        entity_ids: Optional entity-id strings, index-aligned with
            entity indices, for joining back to an
            :class:`~repro.entities.catalog.EntityDatabase`.
    """

    n_entities: int
    site_hosts: list[str]
    site_ptr: np.ndarray
    entity_idx: np.ndarray
    multiplicity: np.ndarray | None = None
    entity_ids: list[str] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.site_ptr = np.asarray(self.site_ptr, dtype=np.int64)
        self.entity_idx = np.asarray(self.entity_idx, dtype=np.int64)
        if self.multiplicity is not None:
            self.multiplicity = np.asarray(self.multiplicity, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        if self.n_entities < 0:
            raise ValueError("n_entities must be non-negative")
        if self.site_ptr.ndim != 1 or len(self.site_ptr) != len(self.site_hosts) + 1:
            raise ValueError("site_ptr must have length n_sites + 1")
        if self.site_ptr[0] != 0 or np.any(np.diff(self.site_ptr) < 0):
            raise ValueError("site_ptr must start at 0 and be non-decreasing")
        if self.site_ptr[-1] != len(self.entity_idx):
            raise ValueError("site_ptr[-1] must equal the number of edges")
        if len(self.entity_idx) and (
            self.entity_idx.min() < 0 or self.entity_idx.max() >= self.n_entities
        ):
            raise ValueError("entity indices out of range")
        if self.multiplicity is not None:
            if len(self.multiplicity) != len(self.entity_idx):
                raise ValueError("multiplicity must be edge-aligned")
            if len(self.multiplicity) and self.multiplicity.min() < 1:
                raise ValueError("multiplicities must be >= 1")
        if self.entity_ids is not None and len(self.entity_ids) != self.n_entities:
            raise ValueError("entity_ids must have length n_entities")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_site_lists(
        cls,
        n_entities: int,
        sites: Sequence[tuple[str, Iterable[int]]],
        multiplicities: Sequence[Iterable[int]] | None = None,
        entity_ids: list[str] | None = None,
    ) -> "BipartiteIncidence":
        """Build from per-site entity lists.

        Args:
            n_entities: Size of the entity database.
            sites: Sequence of ``(host, entity_indices)`` pairs.
                Duplicate indices within one site are merged (and their
                multiplicities summed when given).
            multiplicities: Optional per-site page counts, aligned with
                the entity lists in ``sites``.
            entity_ids: Optional entity-id strings.
        """
        hosts: list[str] = []
        ptr = [0]
        idx_chunks: list[np.ndarray] = []
        mult_chunks: list[np.ndarray] = []
        for site_no, (host, indices) in enumerate(sites):
            arr = np.asarray(list(indices), dtype=np.int64)
            if multiplicities is not None:
                mult = np.asarray(list(multiplicities[site_no]), dtype=np.int64)
                if len(mult) != len(arr):
                    raise ValueError(
                        f"site {host!r}: multiplicity list misaligned with entities"
                    )
            else:
                mult = np.ones(len(arr), dtype=np.int64)
            if len(arr):
                unique, inverse = np.unique(arr, return_inverse=True)
                summed = np.zeros(len(unique), dtype=np.int64)
                np.add.at(summed, inverse, mult)
                arr, mult = unique, summed
            hosts.append(host)
            idx_chunks.append(arr)
            mult_chunks.append(mult)
            ptr.append(ptr[-1] + len(arr))
        entity_idx = (
            np.concatenate(idx_chunks) if idx_chunks else np.empty(0, dtype=np.int64)
        )
        mult_arr: np.ndarray | None = (
            np.concatenate(mult_chunks) if mult_chunks else np.empty(0, dtype=np.int64)
        )
        if multiplicities is None:
            mult_arr = None
        return cls(
            n_entities=n_entities,
            site_hosts=hosts,
            site_ptr=np.asarray(ptr, dtype=np.int64),
            entity_idx=entity_idx,
            multiplicity=mult_arr,
            entity_ids=entity_ids,
        )

    # -- basic accessors --------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites (hosts)."""
        return len(self.site_hosts)

    @property
    def n_edges(self) -> int:
        """Number of (entity, site) incidences."""
        return int(self.site_ptr[-1])

    def site_entities(self, site: int) -> np.ndarray:
        """Entity indices mentioned by ``site``."""
        return self.entity_idx[self.site_ptr[site]:self.site_ptr[site + 1]]

    def site_multiplicities(self, site: int) -> np.ndarray:
        """Pages-per-entity for ``site`` (ones when multiplicity is unset)."""
        lo, hi = self.site_ptr[site], self.site_ptr[site + 1]
        if self.multiplicity is None:
            return np.ones(int(hi - lo), dtype=np.int64)
        return self.multiplicity[lo:hi]

    def site_sizes(self) -> np.ndarray:
        """Entities-per-site counts, ``int64[n_sites]``."""
        return np.diff(self.site_ptr)

    def entity_mention_counts(self) -> np.ndarray:
        """Sites-per-entity counts, ``int64[n_entities]``.

        Table 2's "Avg. #sites per entity" is the mean of this array
        restricted to entities with at least one mention.
        """
        counts = np.zeros(self.n_entities, dtype=np.int64)
        np.add.at(counts, self.entity_idx, 1)
        return counts

    def mentioned_entities(self) -> np.ndarray:
        """Sorted indices of entities with at least one mention."""
        return np.unique(self.entity_idx)

    def average_sites_per_entity(self) -> float:
        """Mean number of sites mentioning an entity (over mentioned ones)."""
        n_mentioned = len(self.mentioned_entities())
        if n_mentioned == 0:
            return 0.0
        return self.n_edges / n_mentioned

    def sites_by_size(self) -> np.ndarray:
        """Site indices in decreasing order of entity count.

        This is the paper's default site ranking ("we order the list of
        websites in decreasing order of the number of entities they
        contain").  Ties break by site index for determinism.
        """
        return rank_by_size(self.site_sizes())

    # -- transforms ---------------------------------------------------------------

    def drop_sites(self, sites: Iterable[int]) -> "BipartiteIncidence":
        """Return a copy with the given sites removed.

        Used by the robustness analysis (Figure 9): remove the top-k
        sites and re-measure connectivity.  Entity indexing (and hence
        the coverage denominator) is unchanged.  Surviving sites keep
        their relative order, and their multiplicity slices move with
        them.
        """
        keep_site = np.ones(self.n_sites, dtype=bool)
        drop_arr = np.fromiter((int(s) for s in sites), dtype=np.int64)
        # Indices outside [0, n_sites) are ignored, as with the set-based
        # membership test this replaces (negatives must not wrap around).
        drop_arr = drop_arr[(drop_arr >= 0) & (drop_arr < self.n_sites)]
        if len(drop_arr):
            keep_site[drop_arr] = False
        sizes = self.site_sizes()
        keep_edge = np.repeat(keep_site, sizes)
        hosts = [
            host for host, keep in zip(self.site_hosts, keep_site) if keep
        ]
        ptr = np.zeros(len(hosts) + 1, dtype=np.int64)
        np.cumsum(sizes[keep_site], out=ptr[1:])
        return BipartiteIncidence(
            n_entities=self.n_entities,
            site_hosts=hosts,
            site_ptr=ptr,
            entity_idx=self.entity_idx[keep_edge],
            multiplicity=(
                None
                if self.multiplicity is None
                else self.multiplicity[keep_edge]
            ),
            entity_ids=self.entity_ids,
        )

    def iter_sites(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(host, entity_indices)`` per site."""
        for s in range(self.n_sites):
            yield self.site_hosts[s], self.site_entities(s)

    def total_pages(self) -> int:
        """Total page count (sum of multiplicities; edges when unset)."""
        if self.multiplicity is None:
            return self.n_edges
        return int(self.multiplicity.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteIncidence(entities={self.n_entities}, "
            f"sites={self.n_sites}, edges={self.n_edges})"
        )


def rank_by_size(sizes: np.ndarray) -> np.ndarray:
    """Site indices in decreasing order of ``sizes``, ties by site index.

    The one spelling of the paper's site ranking: every ranked view of
    a corpus (``BipartiteIncidence.sites_by_size``, and through it the
    compiled store's ``top_hosts``) orders sites through it.
    """
    return np.lexsort((np.arange(len(sizes)), -np.asarray(sizes)))


def transpose_csr(incidence: BipartiteIncidence) -> tuple[np.ndarray, np.ndarray]:
    """CSR-by-entity transpose of a CSR-by-site incidence.

    Returns ``(entity_ptr, entity_sites)`` such that
    ``entity_sites[entity_ptr[e]:entity_ptr[e + 1]]`` are the site
    indices mentioning entity ``e``.  A stable argsort over the edge
    entity indices groups edges by entity while preserving edge order —
    and edges are stored site-ascending, so each entity's site list
    comes out ascending.  Shared by the in-RAM serving index and the
    ``repro.store`` compiler so every backend ranks sites identically.
    """
    n_sites = len(incidence.site_hosts)
    site_per_edge = np.repeat(
        np.arange(n_sites, dtype=np.int64), np.diff(incidence.site_ptr)
    )
    order = np.argsort(incidence.entity_idx, kind="stable")
    entity_sites = site_per_edge[order]
    counts = np.bincount(incidence.entity_idx, minlength=incidence.n_entities)
    entity_ptr = np.zeros(incidence.n_entities + 1, dtype=np.int64)
    np.cumsum(counts, out=entity_ptr[1:])
    return entity_ptr, entity_sites
