"""An independent reference index for the storage-tier suites.

Every serving tier opens the one compiled store (``repro.store``), so
diffing the tiers against each other cannot catch a bug in what they
share.  This module builds a pair's answers the direct way instead:
the pipeline's incidence, ``transpose_csr``, ``k_coverage_curves`` over
every site prefix, a live ``greedy_set_cover`` per set-cover budget,
and plain dicts for host and catalog-id resolution (the last duplicate
wins).  Wrapped in a ``QueryIndex``, it renders
``/v1/*`` responses through ``ServeApp`` like any tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coverage import k_coverage_curves
from repro.core.incidence import BipartiteIncidence, transpose_csr
from repro.core.setcover import greedy_set_cover
from repro.core.valueadd import demand_vs_reviews
from repro.pipeline.experiments import build_traffic_dataset, spread_incidence
from repro.store import DemandTable, Manifest, QueryIndex, manifest_identity
from repro.store.backend import check_top_t, coverage_row
from repro.store.compile import DEMAND_SOURCES, TOP_HOSTS


@dataclass(frozen=True)
class ReferencePair:
    """One (domain, attribute) corpus answered straight from its incidence."""

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
        return self.incidence.n_entities

    @property
    def n_sites(self) -> int:
        return len(self.incidence.site_hosts)

    def resolve_entity(self, entity_id: str) -> int | None:
        found = self.id_to_entity.get(entity_id)
        if found is not None:
            return found
        if entity_id.isdigit():
            index = int(entity_id)
            if 0 <= index < self.n_entities:
                return index
        return None

    def entity_label(self, entity: int) -> str:
        ids = self.incidence.entity_ids
        return ids[entity] if ids is not None else str(entity)

    def entity_labels(self, entities) -> list[str]:
        return [self.entity_label(int(e)) for e in entities]

    def sites_of_entity(self, entity: int) -> np.ndarray:
        return self.entity_sites[self.entity_ptr[entity] : self.entity_ptr[entity + 1]]

    def entities_on_site(self, site: int) -> np.ndarray:
        return self.incidence.site_entities(site)

    def site_page(self, site: int, offset: int, count: int):
        entities = self.incidence.site_entities(site)
        return len(entities), entities[offset : offset + count]

    def entity_site_hosts(self, entity: int) -> list[str]:
        return self.site_hosts(self.sites_of_entity(entity))

    def site_host(self, site: int) -> str:
        return self.incidence.site_hosts[site]

    def site_hosts(self, sites) -> list[str]:
        return [self.site_host(int(s)) for s in sites]

    def site_of_host(self, host: str) -> int | None:
        return self.host_to_site.get(host)

    def coverage_at(self, k: int, top_t: int) -> float:
        row = coverage_row(self.coverage_ks, k)
        check_top_t(top_t, self.n_sites)
        return float(self.coverage[row, top_t - 1])

    def set_cover(self, budget: int) -> dict[str, object]:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        order, gains = greedy_set_cover(self.incidence, max_sites=budget)
        return {
            "budget": int(budget),
            "selected": [self.site_host(int(s)) for s in order],
            "gains": [int(g) for g in gains],
            "coverage": round(float(gains.sum()) / max(self.n_entities, 1), 6),
        }


def reference_pair(domain: str, attribute: str, config) -> ReferencePair:
    """Build one pair's reference answers from the pipeline's incidence."""
    incidence = spread_incidence(domain, attribute, config)
    entity_ptr, entity_sites = transpose_csr(incidence)
    curves = k_coverage_curves(
        incidence,
        ks=config.ks,
        checkpoints=np.arange(1, incidence.n_sites + 1, dtype=np.int64),
    )
    ranked = incidence.sites_by_size()
    ids = incidence.entity_ids
    return ReferencePair(
        domain=domain,
        attribute=attribute,
        incidence=incidence,
        entity_ptr=entity_ptr,
        entity_sites=entity_sites,
        host_to_site={host: site for site, host in enumerate(incidence.site_hosts)},
        id_to_entity={label: index for index, label in enumerate(ids or ())},
        coverage_ks=tuple(int(k) for k in curves.ks),
        coverage=curves.coverage,
        top_hosts=tuple(incidence.site_hosts[int(s)] for s in ranked[:TOP_HOSTS]),
    )


def reference_demand(site: str, config) -> DemandTable:
    """One traffic site's demand-vs-reviews table, built directly."""
    dataset = build_traffic_dataset(site, config)
    return DemandTable(
        site=site,
        sources={
            source: demand_vs_reviews(dataset.demand(source), dataset.reviews)
            for source in DEMAND_SOURCES
        },
        max_reviews=int(dataset.reviews.max()) if len(dataset.reviews) else 0,
    )


def reference_index(manifest: Manifest) -> QueryIndex:
    """A ``QueryIndex`` over reference pairs, for ``ServeApp``."""
    pairs = {}
    default_attribute: dict[str, str] = {}
    for domain, attribute in manifest.spread_pairs:
        pairs[(domain, attribute)] = reference_pair(domain, attribute, manifest.config)
        default_attribute.setdefault(domain, attribute)
    return QueryIndex(
        config=manifest.config,
        pairs=pairs,
        default_attribute=default_attribute,
        demand={
            site: reference_demand(site, manifest.config)
            for site in manifest.traffic_sites
        },
        identity=manifest_identity(manifest),
        build_seconds=0.0,
        backend="reference",
    )
