"""Tier selection and the shared query-index runtime.

``repro.store`` serves the contract from two storage tiers, both
opened from the array store that
:func:`~repro.store.compile.build_store` compiles and both answering
through one pair class (:class:`~repro.store.mmapcsr.ArrayPair`):

``ram``
    The compiled per-pair ``.npy`` blobs loaded whole, as published —
    fastest, but resident size grows linearly with the corpus.  Without
    an artifact cache (``--no-cache``), or over a size-bounded one that
    does not hold the published store yet, the same packed arrays are
    compiled in memory (greedy set cover included) and never
    published.
``mmap``
    The same blobs opened with ``np.load(..., mmap_mode="r")``, so the
    OS pages adjacency in on demand and cold rows cost no RSS.

Both tiers also find a site request's host one way:
:meth:`QueryIndex.host_matches` asks each pair in turn.

Both tiers must render **byte-identical** ``/v1/*`` responses —
including error-message strings, which the HTTP layer embeds in
400/404 bodies.  The shared helpers here (`coverage_row`,
`check_top_t`) exist so those strings have exactly one spelling,
shared with the test suite's independent reference index.  Nothing is
computed at request time: set cover is a slice of the greedy order
the compiler stored (:meth:`~repro.store.mmapcsr.ArrayPair.set_cover`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.pipeline.config import ExperimentConfig
from repro.store.demand import DemandTable
from repro.store.manifest import Manifest

__all__ = [
    "BACKENDS",
    "QueryIndex",
    "RAM_MAX_ENTITIES",
    "check_top_t",
    "choose_backend",
    "coverage_row",
    "open_backend",
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
    """

    config: ExperimentConfig
    pairs: dict[tuple[str, str], Any] = field(repr=False)
    default_attribute: dict[str, str]
    demand: dict[str, DemandTable] = field(repr=False)
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

    def host_matches(
        self, host: str, domain: str | None, attribute: str | None
    ) -> list[tuple[Any, int]]:
        """``(pair, site)`` for every pair with ``host``, in key order.

        ``domain``/``attribute`` (None: any) narrow the pairs asked;
        naming both asks that one pair.  Each pair resolves the host
        with its own binary search (the last duplicate wins).
        """
        if domain is not None and attribute is not None:
            pair = self.pairs.get((domain, attribute))
            candidates = [] if pair is None else [pair]
        else:
            candidates = [
                self.pairs[key]
                for key in sorted(self.pairs)
                if (domain is None or key[0] == domain)
                and (attribute is None or key[1] == attribute)
            ]
        matches: list[tuple[Any, int]] = []
        for pair in candidates:
            site = pair.site_of_host(host)
            if site is not None:
                matches.append((pair, site))
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
    in memory too.
    """
    from repro.perf.cache import active_cache
    from repro.store.compile import build_store, materialize_store, open_store
    from repro.store.mmapcsr import open_array_pairs

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
    )
