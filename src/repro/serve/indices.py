"""Immutable read-optimized indices over `repro all` artifacts.

The batch pipeline's manifest (``manifest.json``, written by
:func:`repro.pipeline.runall.write_manifest`) records the experiment
config of a completed run.  :func:`build_index` reconstructs every
spread corpus and traffic dataset through the *cache-aware* builders
(:func:`~repro.pipeline.experiments.spread_incidence` /
:func:`~repro.pipeline.experiments.build_traffic_dataset`), so against a
warm artifact cache startup is pure deserialization, and against a cold
one the indices are still byte-for-byte the run's own data — same
fingerprints, same generators.

Read-optimized layout per (domain, attribute) pair:

- the pipeline's CSR-by-site incidence, kept as-is for site→entities;
- its transpose (CSR-by-entity) for entity→sites, built with a stable
  argsort so site indices stay ascending within each entity row;
- a dense per-site k-coverage table (``float64[len(ks), n_sites]``)
  answering ``/v1/coverage?k=&t=`` in O(1);
- host→site and catalog-id→entity hash maps.

This module builds the **ram** tier.  :func:`build_index` also fronts
the out-of-core tiers in :mod:`repro.store` (``backend="mmap"`` /
``"sqlite"``; ``"auto"`` picks by manifest size), which answer the
same queries from memory-mapped CSR blobs or a compiled SQLite file
with byte-identical responses.  The manifest machinery and the shared
:class:`DemandTable` live in ``repro.store`` (below this layer) and
are re-exported here for compatibility.

Everything is built once; queries never mutate, so the HTTP layer
reads without locks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.coverage import k_coverage_curves
from repro.core.incidence import BipartiteIncidence, transpose_csr
from repro.core.valueadd import demand_vs_reviews
from repro.pipeline.config import ExperimentConfig
from repro.store.backend import (
    QueryIndex,
    check_top_t,
    choose_backend,
    coverage_row,
    open_backend,
    run_set_cover,
)
from repro.store.compile import DEMAND_SOURCES, TOP_HOSTS as _TOP_HOSTS
from repro.store.demand import DemandTable
from repro.store.manifest import Manifest, load_manifest, manifest_identity

__all__ = [
    "DemandTable",
    "Manifest",
    "PairIndex",
    "build_index",
    "load_manifest",
    "manifest_identity",
]


@dataclass(frozen=True)
class PairIndex:
    """Read-optimized structures for one (domain, attribute) corpus."""

    domain: str
    attribute: str
    incidence: BipartiteIncidence = field(repr=False)
    entity_ptr: np.ndarray = field(repr=False)
    entity_sites: np.ndarray = field(repr=False)
    host_to_site: dict[str, int] = field(repr=False)
    id_to_entity: dict[str, int] = field(repr=False)
    coverage_ks: tuple[int, ...]
    coverage: np.ndarray = field(repr=False)
    top_hosts: tuple[str, ...]

    @property
    def n_entities(self) -> int:
        """Entity-database size (coverage denominator)."""
        return self.incidence.n_entities

    @property
    def n_sites(self) -> int:
        """Number of sites in this corpus."""
        return len(self.incidence.site_hosts)

    def resolve_entity(self, entity_id: str) -> int | None:
        """Map a catalog id (or bare index string) to an entity index."""
        found = self.id_to_entity.get(entity_id)
        if found is not None:
            return found
        if entity_id.isdigit():
            index = int(entity_id)
            if 0 <= index < self.n_entities:
                return index
        return None

    def entity_label(self, entity: int) -> str:
        """Catalog id for an entity index (falls back to the index)."""
        ids = self.incidence.entity_ids
        return ids[entity] if ids is not None else str(entity)

    def entity_labels(self, entities) -> list[str]:
        """Labels for an iterable of entity indices, in input order."""
        ids = self.incidence.entity_ids
        if ids is None:
            return [str(int(e)) for e in entities]
        return [ids[int(e)] for e in entities]

    def sites_of_entity(self, entity: int) -> np.ndarray:
        """Site indices mentioning ``entity`` (ascending)."""
        return self.entity_sites[self.entity_ptr[entity] : self.entity_ptr[entity + 1]]

    def entities_on_site(self, site: int) -> np.ndarray:
        """Entity indices mentioned by site ``site``."""
        return self.incidence.site_entities(site)

    def site_page(self, site: int, offset: int, count: int):
        """``(total, page)`` slice of a site's listing (CSR row order)."""
        entities = self.incidence.site_entities(site)
        return len(entities), entities[offset : offset + count]

    def entity_site_hosts(self, entity: int) -> list[str]:
        """Hosts of an entity's sites, in ascending site order."""
        return self.site_hosts(self.sites_of_entity(entity))

    def site_host(self, site: int) -> str:
        """Host name for a site index."""
        return self.incidence.site_hosts[site]

    def site_hosts(self, sites) -> list[str]:
        """Hosts for an iterable of site indices, in input order."""
        hosts = self.incidence.site_hosts
        return [hosts[int(s)] for s in sites]

    def site_of_host(self, host: str) -> int | None:
        """Site index for a host name, or None when unknown."""
        return self.host_to_site.get(host)

    def coverage_at(self, k: int, top_t: int) -> float:
        """k-coverage of the top-``top_t`` sites, from the dense table.

        Raises:
            KeyError: ``k`` was not precomputed (outside the config ks).
            ValueError: ``top_t`` outside ``[1, n_sites]``.
        """
        row = coverage_row(self.coverage_ks, k)
        check_top_t(top_t, self.n_sites)
        return float(self.coverage[row, top_t - 1])

    def set_cover(self, budget: int) -> dict[str, object]:
        """Bounded greedy set cover: the expensive batched query.

        Returns the selected hosts, their marginal gains, and the
        cumulative 1-coverage fraction after the budget is spent.
        """
        return run_set_cover(self.incidence, self.site_host, budget)


def _build_pair(
    domain: str, attribute: str, config: ExperimentConfig
) -> PairIndex:
    """Build one pair's read-optimized structures."""
    # Lazy: repro.pipeline.experiments drags the whole batch stack
    # (~11 MB RSS, ~100 ms) into any importer; serve workers that boot
    # from a compiled store never build a RAM index and must not pay it
    # at import time (IMP001).
    from repro.pipeline.experiments import spread_incidence

    incidence = spread_incidence(domain, attribute, config)
    entity_ptr, entity_sites = transpose_csr(incidence)
    curves = k_coverage_curves(
        incidence,
        ks=config.ks,
        checkpoints=np.arange(1, len(incidence.site_hosts) + 1, dtype=np.int64),
    )
    ranked = incidence.sites_by_size()
    top_hosts = tuple(
        incidence.site_hosts[int(s)] for s in ranked[:_TOP_HOSTS]
    )
    ids = incidence.entity_ids
    id_to_entity = (
        {entity_id: index for index, entity_id in enumerate(ids)}
        if ids is not None
        else {}
    )
    return PairIndex(
        domain=domain,
        attribute=attribute,
        incidence=incidence,
        entity_ptr=entity_ptr,
        entity_sites=entity_sites,
        host_to_site={
            host: site for site, host in enumerate(incidence.site_hosts)
        },
        id_to_entity=id_to_entity,
        coverage_ks=tuple(int(k) for k in curves.ks),
        coverage=curves.coverage,
        top_hosts=top_hosts,
    )


def _build_demand(site: str, config: ExperimentConfig) -> DemandTable:
    """Build one traffic site's demand-vs-reviews lookup table."""
    from repro.pipeline.experiments import build_traffic_dataset  # lazy: see _build_pair

    dataset = build_traffic_dataset(site, config)
    sources = {
        source: demand_vs_reviews(dataset.demand(source), dataset.reviews)
        for source in DEMAND_SOURCES
    }
    return DemandTable(
        site=site,
        sources=sources,
        max_reviews=int(dataset.reviews.max()) if len(dataset.reviews) else 0,
    )


def build_index(manifest: Manifest, backend: str = "auto") -> QueryIndex:
    """Build the serving index for a manifest's run.

    ``backend`` selects the storage tier: ``"ram"`` (the classic
    in-memory CSR), ``"mmap"`` or ``"sqlite"`` (out-of-core, via
    :mod:`repro.store`), or ``"auto"`` to pick by manifest size.  All
    tiers route every corpus through the cache-aware pipeline builders
    and return byte-identical query responses; only residency and
    latency differ.  The returned index is immutable and safe for
    lock-free concurrent reads.
    """
    if backend == "auto":
        backend = choose_backend(manifest)
    if backend != "ram":
        return open_backend(manifest, backend)
    started = time.perf_counter()
    pairs: dict[tuple[str, str], PairIndex] = {}
    default_attribute: dict[str, str] = {}
    for domain, attribute in manifest.spread_pairs:
        pairs[(domain, attribute)] = _build_pair(domain, attribute, manifest.config)
        default_attribute.setdefault(domain, attribute)
    demand = {
        site: _build_demand(site, manifest.config)
        for site in manifest.traffic_sites
    }
    identity = manifest_identity(manifest)
    return QueryIndex(
        config=manifest.config,
        pairs=pairs,
        default_attribute=default_attribute,
        demand=demand,
        identity=identity,
        build_seconds=time.perf_counter() - started,
        backend="ram",
    )
