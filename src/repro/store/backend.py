"""Tier selection and the shared query-index runtime.

``repro.store`` serves the contract from two storage tiers, both
opened from the array store that
:func:`~repro.store.compile.build_store` compiles and both answering
through one pair class (:class:`~repro.store.mmapcsr.ArrayPair`):

``ram``
    The compiled per-pair ``.npy`` blobs loaded whole — fastest, but
    resident size grows linearly with the corpus.  Without an artifact
    cache (``--no-cache``), or over a size-bounded one that does not
    hold the published store yet, the same packed arrays are compiled
    in memory and never published.
``mmap``
    The same blobs opened with ``np.load(..., mmap_mode="r")``, so the
    OS pages adjacency in on demand and cold rows cost no RSS.

Both tiers must render **byte-identical** ``/v1/*`` responses —
including error-message strings, which the HTTP layer embeds in
400/404 bodies.  The shared helpers here (`coverage_row`,
`check_top_t`, `run_set_cover`) exist so those strings and float
paths have exactly one spelling, shared with the test suite's
independent reference index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.setcover import greedy_set_cover
from repro.pipeline.config import ExperimentConfig
from repro.store.demand import DemandTable
from repro.store.manifest import Manifest

__all__ = [
    "BACKENDS",
    "CsrView",
    "QueryIndex",
    "RAM_MAX_ENTITIES",
    "check_top_t",
    "choose_backend",
    "coverage_row",
    "open_backend",
    "run_set_cover",
]

#: Accepted ``--backend`` values (``auto`` resolves per manifest size).
BACKENDS = ("auto", "ram", "mmap")

#: ``auto`` keeps corpora at or below this many total entities in RAM.
RAM_MAX_ENTITIES = 50_000


@dataclass(frozen=True)
class QueryIndex:
    """Everything the server holds per epoch: pairs, demand, identity.

    The index type for both tiers: ``pairs`` maps each (domain,
    attribute) to its :class:`~repro.store.mmapcsr.ArrayPair`.
    ``summary()`` deliberately omits the backend name — the
    ``/healthz`` payload is part of the byte-identity contract.
    ``host_directory`` is the ram tier's
    :class:`~repro.store.mmapcsr.HostDirectory` (None under mmap).
    """

    config: ExperimentConfig
    pairs: dict[tuple[str, str], Any] = field(repr=False)
    default_attribute: dict[str, str]
    demand: dict[str, DemandTable] = field(repr=False)
    identity: str
    build_seconds: float
    backend: str = "ram"
    host_directory: Any = field(default=None, repr=False)

    def resolve_pair(self, domain: str, attribute: str | None) -> Any:
        """Find the index for a domain, defaulting to its first attribute."""
        if attribute is None:
            attribute = self.default_attribute.get(domain)
            if attribute is None:
                return None
        return self.pairs.get((domain, attribute))

    def host_matches(
        self, host: str, domain: str | None, attribute: str | None
    ) -> list[tuple[Any, int]]:
        """``(pair, site)`` for every pair with ``host``, in key order.

        ``domain``/``attribute`` (None: any) narrow the pairs asked.
        With a host directory every pair is answered by one search;
        otherwise each pair resolves the host itself.
        """

        def wanted(key: tuple[str, str]) -> bool:
            return (domain is None or key[0] == domain) and (
                attribute is None or key[1] == attribute
            )

        if self.host_directory is not None:
            return [
                (self.pairs[key], site)
                for key, site in self.host_directory.lookup(host)
                if wanted(key)
            ]
        matches: list[tuple[Any, int]] = []
        for key in sorted(self.pairs):
            if wanted(key):
                site = self.pairs[key].site_of_host(host)
                if site is not None:
                    matches.append((self.pairs[key], site))
        return matches

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
    mapped — in the four attributes the lazy greedy loop reads, so both
    tiers reuse the core algorithm verbatim instead of re-implementing
    its tie-breaking.
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
    dominant term in resident index size): corpora up to
    ``RAM_MAX_ENTITIES`` stay in RAM, larger ones mmap their blobs.
    """
    per_pair = manifest.config.scale_preset.n_entities
    total = per_pair * max(1, len(manifest.spread_pairs))
    return "ram" if total <= RAM_MAX_ENTITIES else "mmap"


def open_backend(
    manifest: Manifest, backend: str, cache: Any = None
) -> QueryIndex:
    """Open a storage tier over a manifest, compiling the store if needed.

    ``backend`` is ``"ram"`` or ``"mmap"``.  Compilation is
    idempotent: against a warm artifact cache this is pure open (every
    blob digest-verified), against a cold one :func:`build_store`
    regenerates the blobs first.  With no cache at all, ``ram``
    compiles the same arrays in memory and publishes nothing; ``mmap``
    raises ``RuntimeError``.  Over a size-bounded cache, whose
    eviction can drop the store's blobs while they are being
    published (``mmap`` then fails the read-back),
    ``ram`` opens an already published store and otherwise compiles
    in memory too.  ``ram`` also gets a host directory, so a site
    lookup is one search however many pairs it spans.
    """
    from repro.perf.cache import active_cache
    from repro.store.compile import build_store, materialize_store, open_store
    from repro.store.mmapcsr import HostDirectory, open_array_pairs

    if backend not in ("ram", "mmap"):
        raise ValueError(f"unknown storage backend {backend!r}")
    started = time.perf_counter()
    cache = cache if cache is not None else active_cache()
    if backend == "ram" and (cache is None or cache.max_bytes is not None):
        published = None if cache is None else open_store(manifest, cache)
        artifacts = published or materialize_store(manifest)
    else:
        artifacts = build_store(manifest, cache=cache)
    pairs, demand = open_array_pairs(artifacts, resident=backend == "ram")
    host_directory = None
    if backend == "ram" and pairs:
        host_directory = HostDirectory.build(pairs)
    default_attribute: dict[str, str] = {}
    for domain, attribute in manifest.spread_pairs:
        default_attribute.setdefault(domain, attribute)
    return QueryIndex(
        config=manifest.config,
        pairs=pairs,
        default_attribute=default_attribute,
        demand=demand,
        identity=artifacts.identity,
        build_seconds=time.perf_counter() - started,
        backend=backend,
        host_directory=host_directory,
    )
