"""Backend protocol, tier selection, and shared query-index runtime.

``repro.store`` puts three interchangeable storage tiers behind the
serving contract:

``ram``
    The classic in-memory CSR index built by
    :func:`repro.serve.indices.build_index` — fastest, but resident
    size grows linearly with the corpus.
``mmap``
    The same CSR arrays compiled to individual ``.npy`` blobs and
    opened with ``np.load(..., mmap_mode="r")``, so the OS pages
    adjacency in on demand and cold rows cost no RSS.
``sqlite``
    Adjacency, k-coverage ranks, and demand bins pushed into a single
    SQLite file over integer-encoded entities/sites with covering
    indices; queries run in SQL.

Every tier exposes the same duck type (:class:`StorageBackend` /
:class:`PairBackend`) and must render **byte-identical** ``/v1/*``
responses — including error-message strings, which the HTTP layer
embeds in 400/404 bodies.  The shared helpers here (`coverage_row`,
`check_top_t`, `run_set_cover`) exist so those strings and float
paths have exactly one spelling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.setcover import greedy_set_cover
from repro.pipeline.config import ExperimentConfig
from repro.store.demand import DemandTable
from repro.store.manifest import Manifest, manifest_identity

__all__ = [
    "BACKENDS",
    "CsrView",
    "PairBackend",
    "QueryIndex",
    "RAM_MAX_ENTITIES",
    "StorageBackend",
    "check_top_t",
    "choose_backend",
    "coverage_row",
    "open_backend",
    "run_set_cover",
]

#: Accepted ``--backend`` values (``auto`` resolves per manifest size).
BACKENDS = ("auto", "ram", "mmap", "sqlite")

#: ``auto`` keeps corpora at or below this many total entities in RAM.
RAM_MAX_ENTITIES = 50_000

#: ``auto`` upgrades mmap to sqlite above this many total entities.
MMAP_MAX_ENTITIES = 5_000_000


@runtime_checkable
class PairBackend(Protocol):
    """Per-(domain, attribute) query surface the HTTP handlers consume."""

    domain: str
    attribute: str

    @property
    def n_entities(self) -> int:
        """Entity-database size (coverage denominator)."""
        ...

    @property
    def n_sites(self) -> int:
        """Number of sites in this corpus."""
        ...

    def resolve_entity(self, entity_id: str) -> int | None:
        """Catalog id (or bare index string) → entity index, or None."""
        ...

    def entity_label(self, entity: int) -> str:
        """Catalog id for an entity index (falls back to the index)."""
        ...

    def entity_labels(self, entities: Any) -> list[str]:
        """Labels for an iterable of entity indices, in input order.

        Must render exactly ``[entity_label(e) for e in entities]`` —
        it exists so out-of-core tiers can batch the lookups instead
        of paying one query per row.
        """
        ...

    def sites_of_entity(self, entity: int) -> np.ndarray:
        """Site indices mentioning ``entity`` (ascending)."""
        ...

    def entities_on_site(self, site: int) -> np.ndarray:
        """Entity indices mentioned by site ``site`` (row order)."""
        ...

    def site_page(self, site: int, offset: int, count: int) -> tuple[int, Any]:
        """``(total, entities[offset:offset + count])`` for one site.

        Semantically ``(len(row), row[offset:offset + count])`` over
        ``entities_on_site`` — the paged spelling lets out-of-core
        tiers fetch only the page instead of the whole listing.
        """
        ...

    def entity_site_hosts(self, entity: int) -> list[str]:
        """Hosts of ``sites_of_entity(entity)``, in the same order.

        Must equal ``site_hosts(sites_of_entity(entity))``; the fused
        spelling lets the SQL tier answer with one join.
        """
        ...

    def site_host(self, site: int) -> str:
        """Host name for a site index."""
        ...

    def site_hosts(self, sites: Any) -> list[str]:
        """Hosts for an iterable of site indices, in input order.

        Must render exactly ``[site_host(s) for s in sites]``; the
        batched spelling lets the SQL tier answer a whole listing in
        a handful of constant-statement queries.
        """
        ...

    def site_of_host(self, host: str) -> int | None:
        """Site index for a host name, or None when unknown."""
        ...

    def coverage_at(self, k: int, top_t: int) -> float:
        """k-coverage of the top-``top_t`` sites (KeyError/ValueError)."""
        ...

    def set_cover(self, budget: int) -> dict[str, object]:
        """Bounded greedy set cover (selected hosts, gains, coverage)."""
        ...


@runtime_checkable
class StorageBackend(Protocol):
    """Index-level surface: what `ServeApp` holds per epoch."""

    config: ExperimentConfig
    identity: str
    build_seconds: float
    backend: str

    def resolve_pair(self, domain: str, attribute: str | None) -> Any:
        """(domain, attribute or domain default) → pair backend."""
        ...

    def summary(self) -> dict[str, object]:
        """The byte-stable ``/healthz`` payload."""
        ...


@dataclass(frozen=True)
class QueryIndex:
    """Everything the server holds per epoch: pairs, demand, identity.

    The concrete index type for *all* tiers: only the pair/demand
    objects inside differ per backend.  ``summary()`` deliberately
    omits the backend name — the ``/healthz`` payload is part of the
    byte-identity contract.
    """

    config: ExperimentConfig
    pairs: dict[tuple[str, str], Any] = field(repr=False)
    default_attribute: dict[str, str]
    demand: dict[str, Any] = field(repr=False)
    identity: str
    build_seconds: float
    backend: str = "ram"

    def resolve_pair(self, domain: str, attribute: str | None) -> Any:
        """Find the index for a domain, defaulting to its first attribute."""
        if attribute is None:
            attribute = self.default_attribute.get(domain)
            if attribute is None:
                return None
        return self.pairs.get((domain, attribute))

    def summary(self) -> dict[str, object]:
        """The `/healthz` payload: enough shape for a load generator."""
        return {
            "status": "ok",
            "scale": self.config.scale,
            "seed": self.config.seed,
            "index_fingerprint": self.identity,
            "pairs": [
                {
                    "domain": pair.domain,
                    "attribute": pair.attribute,
                    "n_entities": pair.n_entities,
                    "n_sites": pair.n_sites,
                    "ks": list(pair.coverage_ks),
                    "top_hosts": list(pair.top_hosts),
                }
                for pair in (
                    self.pairs[key] for key in sorted(self.pairs)
                )
            ],
            "traffic_sites": sorted(self.demand),
        }


class CsrView:
    """Duck-typed CSR-by-site adjacency for :func:`greedy_set_cover`.

    Wraps bare ``(site_ptr, entity_idx)`` arrays — in-RAM or memory
    mapped — in the four attributes the lazy greedy loop reads, so the
    out-of-core tiers reuse the core algorithm verbatim instead of
    re-implementing its tie-breaking.
    """

    __slots__ = ("n_entities", "site_ptr", "entity_idx")

    def __init__(
        self, n_entities: int, site_ptr: np.ndarray, entity_idx: np.ndarray
    ) -> None:
        self.n_entities = int(n_entities)
        self.site_ptr = site_ptr
        self.entity_idx = entity_idx

    @property
    def n_sites(self) -> int:
        """Number of sites (CSR rows)."""
        return len(self.site_ptr) - 1

    def site_sizes(self) -> np.ndarray:
        """Entities-per-site counts, ``int64[n_sites]``."""
        return np.diff(self.site_ptr)

    def site_entities(self, site: int) -> np.ndarray:
        """Entity indices mentioned by ``site``."""
        return self.entity_idx[self.site_ptr[site] : self.site_ptr[site + 1]]


def coverage_row(coverage_ks: tuple[int, ...], k: int) -> int:
    """Row of ``k`` in the precomputed coverage table.

    Raises:
        KeyError: ``k`` was not precomputed (outside the config ks).
    """
    try:
        return coverage_ks.index(int(k))
    except ValueError:
        raise KeyError(
            f"k={k} not precomputed; available: {coverage_ks}"
        ) from None


def check_top_t(top_t: int, n_sites: int) -> None:
    """Validate a coverage prefix length.

    Raises:
        ValueError: ``top_t`` outside ``[1, n_sites]``.
    """
    if not 1 <= top_t <= n_sites:
        raise ValueError(f"t must be in [1, {n_sites}], got {top_t}")


def run_set_cover(
    view: Any, host_of: Callable[[int], str], budget: int
) -> dict[str, object]:
    """Bounded greedy set cover rendered as the ``/v1/setcover`` payload.

    ``view`` is anything :func:`greedy_set_cover` accepts (a
    ``BipartiteIncidence`` or a :class:`CsrView`); ``host_of`` maps a
    selected site index to its host string.  One shared body keeps the
    selection order, gain integers, and rounded coverage fraction
    bit-identical across tiers.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    order, gains = greedy_set_cover(view, max_sites=budget)
    denominator = max(view.n_entities, 1)
    return {
        "budget": int(budget),
        "selected": [host_of(int(s)) for s in order],
        "gains": [int(g) for g in gains],
        "coverage": round(float(gains.sum()) / denominator, 6),
    }


def choose_backend(manifest: Manifest) -> str:
    """Resolve ``auto`` to a tier from the manifest's corpus size.

    The decision keys on *total* entities across spread pairs (the
    dominant term in resident index size).  Small corpora stay in RAM,
    mid-size ones mmap their CSR blobs, and anything beyond
    ``MMAP_MAX_ENTITIES`` pushes queries into SQLite.
    """
    per_pair = manifest.config.scale_preset.n_entities
    total = per_pair * max(1, len(manifest.spread_pairs))
    if total <= RAM_MAX_ENTITIES:
        return "ram"
    if total <= MMAP_MAX_ENTITIES:
        return "mmap"
    return "sqlite"


def open_backend(
    manifest: Manifest, backend: str, cache: Any = None
) -> QueryIndex:
    """Open an out-of-core backend, compiling the store if needed.

    ``backend`` must be ``"mmap"`` or ``"sqlite"`` (``ram`` is built by
    :func:`repro.serve.indices.build_index`, which owns the pipeline
    builders).  Compilation is idempotent: against a warm artifact
    cache this is pure open, against a cold one :func:`build_store`
    regenerates the blobs first.
    """
    from repro.store.compile import build_store
    from repro.store.mmapcsr import open_mmap_pairs
    from repro.store.sql import open_sqlite_pairs

    if backend not in ("mmap", "sqlite"):
        raise ValueError(f"unknown out-of-core backend {backend!r}")
    started = time.perf_counter()
    artifacts = build_store(manifest, cache=cache)
    if backend == "mmap":
        pairs, demand = open_mmap_pairs(artifacts)
    else:
        pairs, demand = open_sqlite_pairs(artifacts)
    default_attribute: dict[str, str] = {}
    for domain, attribute in manifest.spread_pairs:
        default_attribute.setdefault(domain, attribute)
    return QueryIndex(
        config=manifest.config,
        pairs=pairs,
        default_attribute=default_attribute,
        demand=demand,
        identity=manifest_identity(manifest),
        build_seconds=time.perf_counter() - started,
        backend=backend,
    )
