"""`build_store`: compile a manifest's corpora into array blobs.

The compiler routes every corpus through the *cache-aware* pipeline
builders (:func:`~repro.pipeline.experiments.spread_incidence` /
:func:`~repro.pipeline.experiments.build_traffic_dataset`), then lowers
the read-optimized layout into cache-addressed artifacts keyed on the
manifest identity:

- per pair, individual ``.npy`` blobs (CSR both ways, the dense
  coverage table, the full greedy set-cover order with its gains,
  host/id string arrays plus their sort orders).  The ``ram`` tier
  loads them whole and the ``mmap`` tier maps them with
  ``mmap_mode="r"``.  Individual files, not an ``.npz``: ``np.load``
  silently ignores ``mmap_mode`` for zip members, which would quietly
  re-inflate the index into RAM;
- per traffic site, one small ``.npz`` bundle of demand-bin arrays;
- one ``meta`` record blob, published **last** so its presence implies
  every other blob was published.

Each pair compiles as one ``store:<domain>:<attribute>`` task of
:func:`~repro.perf.execute_tasks`, inline or over worker processes,
and publishes only the blobs the cache lacks.

Compilation is idempotent and crash/chaos-safe: each blob is published
atomically with a sha256 sidecar, and the final read-back re-verifies
every digest.  An injected ``op=corrupt`` fault (or real bit rot)
therefore fails the compile loudly — the hot-reload watcher keeps the
previous epoch instead of serving a torn store.  :func:`open_store`
is the read-only half (a published store or None), and
:func:`materialize_store` returns the same packed arrays in memory,
unpublished (the ``ram`` tier under ``--no-cache``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.coverage import k_coverage_curves
from repro.core.incidence import transpose_csr
from repro.core.setcover import greedy_set_cover
from repro.core.valueadd import demand_vs_reviews
from repro.perf import ExperimentTask, TaskOutcome, execute_tasks, fingerprint
from repro.perf.cache import ArtifactCache, active_cache, configure_cache
from repro.store.demand import DemandTable
from repro.store.manifest import Manifest, manifest_identity

__all__ = [
    "STORE_FORMAT",
    "TOP_HOSTS",
    "StoreArtifacts",
    "build_store",
    "load_blob",
    "materialize_store",
    "open_store",
    "store_blob_key",
    "unpack_texts",
]

STORE_FORMAT = "repro-store-v3"

#: Hosts advertised per pair (head of the size-ranked order); bounds
#: the /healthz payload at paper scale.
TOP_HOSTS = 50

#: Demand sources every traffic dataset exposes, in table order.
DEMAND_SOURCES = ("search", "browse")

#: ``.npy`` members emitted per pair (plus id members when ids exist).
PAIR_MEMBERS = (
    "site_ptr",
    "entity_idx",
    "entity_ptr",
    "entity_sites",
    "coverage",
    "setcover",
    "hosts",
    "hosts_sorted",
    "host_order",
)

PAIR_ID_MEMBERS = ("entity_ids", "ids_sorted", "id_order")


def store_blob_key(identity: str, member: str) -> str:
    """Cache key of one compiled-store blob for an index identity.

    The store format version is part of the key: bumping it orphans
    every old-format blob (they age out of the cache) instead of
    handing a new reader bytes it would misdecode.
    """
    return fingerprint(
        "store-blob", identity=identity, member=member, format=STORE_FORMAT
    )


@dataclass(frozen=True)
class StoreArtifacts:
    """Handles to a compiled store's blobs.

    ``demand`` is materialized eagerly (the bundles are a few dozen
    floats).  A published store's pair blobs stay as verified paths so
    the mmap tier can map them without reading; an unpublished one
    (:func:`materialize_store`) holds the packed arrays themselves.
    """

    manifest: Manifest
    identity: str
    meta: dict
    pair_blobs: dict[tuple[str, str], dict[str, Path | np.ndarray]]
    demand: dict[str, DemandTable] = field(repr=False)


def _save_npy(tmp: Path, array: np.ndarray) -> None:
    # Through a handle: np.save(path) appends ".npy" to suffix-less
    # temp names, which would dodge the atomic rename.
    with open(tmp, "wb") as handle:
        np.save(handle, array)


def _pack_blob(array: np.ndarray) -> np.ndarray:
    """Page-frugal on-disk encoding for a pair blob.

    The mmap tier's resident size is the pages its queries touch, so
    narrower elements are a direct RSS win:

    - unicode arrays (hosts, catalog ids) become fixed-width UTF-8
      bytes — 4x narrower than numpy's UCS-4, and safe for the sorted
      blobs because UTF-8 byte order equals code-point order, so a
      binary search with an encoded needle agrees with the unicode
      sort;
    - int64 index/pointer arrays halve to int32 when every value fits
      (they are non-negative entity/site indices and edge offsets).

    ``coverage`` stays float64: narrowing it would change the floats
    the HTTP layer renders and break tier byte-identity.
    """
    if array.dtype.kind == "U":
        return np.char.encode(array, "utf-8")
    if array.dtype.kind == "i" and array.dtype.itemsize > 4:
        if array.size == 0 or int(array.max()) <= np.iinfo(np.int32).max:
            return array.astype(np.int32)
    return array


def unpack_texts(array: np.ndarray) -> list[str]:
    """A packed string blob (or a slice of one) as Python strings."""
    return [value.decode("utf-8") for value in array.tolist()]


def load_blob(blob: Path | np.ndarray) -> np.ndarray:
    """A pair blob in memory: a published path is read whole."""
    if isinstance(blob, np.ndarray):
        return blob
    return np.load(blob, allow_pickle=False)


def _pair_row(domain: str, attribute: str, incidence, ks) -> dict:
    """One pair's meta row: counts, ``ks``, head hosts, id presence."""
    ranked = incidence.sites_by_size()
    return {
        "domain": domain,
        "attribute": attribute,
        "n_entities": incidence.n_entities,
        "n_sites": incidence.n_sites,
        "ks": [int(k) for k in ks],
        "top_hosts": [incidence.site_hosts[int(s)] for s in ranked[:TOP_HOSTS]],
        "has_ids": incidence.entity_ids is not None,
    }


def _pair_arrays(incidence, ks) -> dict[str, np.ndarray]:
    """One pair's packed blob arrays."""
    entity_ptr, entity_sites = transpose_csr(incidence)
    n_sites = incidence.n_sites
    curves = k_coverage_curves(
        incidence,
        ks=ks,
        checkpoints=np.arange(1, n_sites + 1, dtype=np.int64),
    )
    # The full greedy run: a budget-b cover is its first b picks, since
    # greedy_set_cover reads max_sites only to stop.
    order, gains = greedy_set_cover(incidence)
    hosts = np.asarray(incidence.site_hosts)
    # Sort by host with ascending index as tie-break, so duplicates
    # resolve to the *last* (largest) index via bisect_right - 1 (see
    # mmapcsr._find_last).
    host_order = np.lexsort((np.arange(n_sites), hosts))
    arrays: dict[str, np.ndarray] = {
        "site_ptr": incidence.site_ptr,
        "entity_idx": incidence.entity_idx,
        "entity_ptr": entity_ptr,
        "entity_sites": entity_sites,
        "coverage": curves.coverage,
        "setcover": np.stack([order, gains]),
        "hosts": hosts,
        "hosts_sorted": hosts[host_order],
        "host_order": host_order.astype(np.int64),
    }
    labels = incidence.entity_ids
    if labels is not None:
        ids = np.asarray(labels)
        id_order = np.lexsort((np.arange(incidence.n_entities), ids))
        arrays["entity_ids"] = ids
        arrays["ids_sorted"] = ids[id_order]
        arrays["id_order"] = id_order.astype(np.int64)
    return {name: _pack_blob(array) for name, array in arrays.items()}


def _materialize_pair(
    domain: str, attribute: str, config
) -> tuple[dict, dict[str, np.ndarray]]:
    """One pair's meta row and packed blob arrays."""
    # Lazy: the experiment stack (~11 MB RSS) must not ride along into
    # every serve worker that imports the store (IMP001).
    from repro.pipeline.experiments import spread_incidence

    incidence = spread_incidence(domain, attribute, config)
    return (
        _pair_row(domain, attribute, incidence, config.ks),
        _pair_arrays(incidence, config.ks),
    )


def _compile_pair(payload: dict) -> dict:
    """Task body: publish one pair's missing blobs, return its meta row.

    Installs the store's cache in this process (a pool worker, or the
    caller itself when inline), so the pipeline builder reads the
    run's cached incidence.  A pair whose blobs are all present builds
    its row from that incidence alone, without the transpose, the
    coverage table or the greedy run.
    """
    from repro.pipeline.experiments import spread_incidence  # lazy: see _materialize_pair

    directory, max_bytes = payload["cache"]
    cache = ArtifactCache(directory, max_bytes=max_bytes)
    configure_cache(cache)
    domain, attribute = payload["domain"], payload["attribute"]
    config = payload["config"]
    incidence = spread_incidence(domain, attribute, config)
    row = _pair_row(domain, attribute, incidence, config.ks)
    keys = {
        name: _pair_member_key(payload["identity"], row, name)
        for name in _pair_member_names(row["has_ids"])
    }
    missing = [name for name, key in keys.items() if cache.get_file(key, ".npy") is None]
    if missing:
        arrays = _pair_arrays(incidence, config.ks)
        for name in missing:
            cache.put_file(
                keys[name], ".npy", lambda tmp, arr=arrays[name]: _save_npy(tmp, arr)
            )
    return row


def _materialize_demand(site: str, config) -> tuple[dict, dict[str, np.ndarray]]:
    """One traffic site's meta row and demand-bin arrays."""
    from repro.pipeline.experiments import build_traffic_dataset  # lazy: see _materialize_pair

    dataset = build_traffic_dataset(site, config)
    arrays: dict[str, np.ndarray] = {}
    for source in DEMAND_SOURCES:
        counts, means = demand_vs_reviews(dataset.demand(source), dataset.reviews)
        arrays[f"{source}_counts"] = counts
        arrays[f"{source}_means"] = means
    max_reviews = int(dataset.reviews.max()) if len(dataset.reviews) else 0
    row = {"site": site, "sources": list(DEMAND_SOURCES), "max_reviews": max_reviews}
    return row, arrays


def _demand_table(row: dict, arrays: dict[str, np.ndarray]) -> DemandTable:
    return DemandTable(
        site=row["site"],
        sources={
            source: (arrays[f"{source}_counts"], arrays[f"{source}_means"])
            for source in row["sources"]
        },
        max_reviews=int(row["max_reviews"]),
    )


def _pair_member_names(has_ids: bool) -> tuple[str, ...]:
    return PAIR_MEMBERS + (PAIR_ID_MEMBERS if has_ids else ())


def _pair_member_key(identity: str, row: dict, name: str) -> str:
    return store_blob_key(identity, f"pair/{row['domain']}/{row['attribute']}/{name}")


def materialize_store(manifest: Manifest) -> StoreArtifacts:
    """Compile a manifest's store in memory, publishing nothing.

    The pair blobs are the packed arrays :func:`build_store` would
    publish, so a tier opened over them answers byte-identically to
    one opened over the published store.
    """
    config = manifest.config
    pair_rows: list[dict] = []
    pair_blobs: dict[tuple[str, str], dict[str, Path | np.ndarray]] = {}
    for domain, attribute in manifest.spread_pairs:
        row, arrays = _materialize_pair(domain, attribute, config)
        pair_rows.append(row)
        pair_blobs[(domain, attribute)] = arrays
    demand_rows: list[dict] = []
    demand: dict[str, DemandTable] = {}
    for site in manifest.traffic_sites:
        row, arrays = _materialize_demand(site, config)
        demand_rows.append(row)
        demand[site] = _demand_table(row, arrays)
    identity = manifest_identity(manifest)
    meta = {
        "format": STORE_FORMAT,
        "identity": identity,
        "pairs": pair_rows,
        "demand": demand_rows,
    }
    return StoreArtifacts(
        manifest=manifest,
        identity=identity,
        meta=meta,
        pair_blobs=pair_blobs,
        demand=demand,
    )


def _open_existing(
    manifest: Manifest, cache: ArtifactCache, identity: str, meta: dict
) -> StoreArtifacts | None:
    """Resolve (and digest-verify) every blob; None if any is missing."""
    pair_blobs: dict[tuple[str, str], dict[str, Path | np.ndarray]] = {}
    for row in meta["pairs"]:
        blobs: dict[str, Path | np.ndarray] = {}
        for name in _pair_member_names(bool(row["has_ids"])):
            path = cache.get_file(_pair_member_key(identity, row, name), ".npy")
            if path is None:
                return None
            blobs[name] = path
        pair_blobs[(row["domain"], row["attribute"])] = blobs
    demand: dict[str, DemandTable] = {}
    for row in meta["demand"]:
        arrays = cache.get_arrays(store_blob_key(identity, f"demand/{row['site']}"))
        if arrays is None:
            return None
        demand[row["site"]] = _demand_table(row, arrays)
    return StoreArtifacts(
        manifest=manifest,
        identity=identity,
        meta=meta,
        pair_blobs=pair_blobs,
        demand=demand,
    )


def open_store(manifest: Manifest, cache: ArtifactCache) -> StoreArtifacts | None:
    """The manifest's published store, every blob digest-verified.

    A read-only open: None when the store (or any blob of it) is not
    in the cache, and nothing is ever published.
    """
    identity = manifest_identity(manifest)
    rows = cache.get_records(store_blob_key(identity, "meta"))
    if not rows:
        return None
    return _open_existing(manifest, cache, identity, rows[0])


def build_store(
    manifest: Manifest,
    cache: ArtifactCache | None = None,
    workers: int = 1,
    on_complete: Callable[[TaskOutcome], None] | None = None,
) -> StoreArtifacts:
    """Compile (or reopen) the array store for a manifest.

    Idempotent per blob: against a warm cache this verifies digests and
    returns paths; against a cold (or partially quarantined) cache it
    regenerates exactly the missing blobs from the pipeline builders.

    Each pair compiles as one ``store:<domain>:<attribute>`` task of
    :func:`~repro.perf.execute_tasks`: inline with ``workers <= 1``,
    otherwise fanned over that many worker processes.  The blobs are
    the same bytes either way.  ``on_complete`` receives each pair's
    :class:`~repro.perf.TaskOutcome` (its timing) in this process.

    Raises:
        RuntimeError: No artifact cache is configured, or freshly
            published blobs failed digest verification (e.g. an
            injected corruption fault) — never returns a torn store.
        repro.perf.TaskExecutionError: A pair failed to compile.
    """
    cache = cache if cache is not None else active_cache()
    if cache is None:
        raise RuntimeError(
            "out-of-core store backends need an artifact cache; "
            "configure one (drop --no-cache) or pass cache= explicitly"
        )
    existing = open_store(manifest, cache)
    if existing is not None:
        return existing

    config = manifest.config
    identity = manifest_identity(manifest)
    tasks = [
        ExperimentTask(
            name=f"store:{domain}:{attribute}",
            fn=_compile_pair,
            payload={
                "domain": domain,
                "attribute": attribute,
                "config": config,
                "identity": identity,
                "cache": (str(cache.directory), cache.max_bytes),
            },
        )
        for domain, attribute in manifest.spread_pairs
    ]
    # Inline tasks install the store's cache in this process, and the
    # demand builders below read it too: put back the caller's after.
    previous = configure_cache(cache)
    try:
        result = execute_tasks(tasks, workers=workers, on_complete=on_complete)
        demand_rows: list[dict] = []
        for site in manifest.traffic_sites:
            row, arrays = _materialize_demand(site, config)
            demand_rows.append(row)
            key = store_blob_key(identity, f"demand/{site}")
            if cache.get_arrays(key) is None:
                cache.put_arrays(key, arrays)
    finally:
        configure_cache(previous)

    # Meta goes last: its presence implies every blob above was
    # published.  The read-back below re-verifies every digest so a
    # corrupted publish fails the compile instead of serving torn data.
    meta = {
        "format": STORE_FORMAT,
        "identity": identity,
        "pairs": [result.outcomes[task.name].value for task in tasks],
        "demand": demand_rows,
    }
    cache.put_records(store_blob_key(identity, "meta"), [meta])
    reopened = _open_existing(manifest, cache, identity, meta)
    if reopened is None:
        raise RuntimeError(
            f"store compile for identity {identity} failed read-back "
            "verification (blobs quarantined); refusing to serve a torn store"
        )
    return reopened
