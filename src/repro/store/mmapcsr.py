"""The array tier: one pair backend over the compiled store's blobs.

The ``ram`` and ``mmap`` tiers open the same per-pair ``.npy`` blobs
that :func:`~repro.store.compile.build_store` publishes and answer
through the same :class:`ArrayPair`; only residency differs:

``ram``
    Every blob loaded whole with ``np.load``.  Index arrays are widened
    from their packed int32 to ``intp``, numpy's native index type:
    greedy set cover runs 25–35% slower over int32 arrays, which every
    fancy index has to convert first.
``mmap``
    Every blob mapped with ``np.load(..., mmap_mode="r")``: the OS
    pages adjacency in on demand, so resident size tracks the working
    set instead of the corpus.  The pair holds plain ``ndarray`` views
    of the maps (same pages, faulted lazily, kept alive through
    ``.base``), because every slice of an ``np.memmap`` pays the
    subclass's Python-level overhead.

String resolution (host → site, catalog id → entity) binary-searches
pre-sorted string blobs (``bisect_right`` over the array) — O(log n)
page touches instead of a resident hash map — and steps back one to
pick the largest index among duplicates (a host map's last-wins rule).
The ``ram`` tier also indexes every pair's hosts in one
:class:`HostDirectory`, so a site lookup across all pairs is one
search instead of one per pair.  Listings (``entity_site_hosts``,
``site_hosts``, ``entity_labels``) take one fancy index into the
string blob and one ``tolist()``.

Every numeric path reuses shared code
(:func:`~repro.core.setcover.greedy_set_cover` through
:class:`~repro.store.backend.CsrView`, the dense coverage table, the
:class:`~repro.store.demand.DemandTable` lookup), so responses are
byte-identical by construction.
"""

from __future__ import annotations

import bisect
import mmap
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.store.backend import CsrView, check_top_t, coverage_row, run_set_cover
from repro.store.compile import StoreArtifacts, load_blob, unpack_texts

__all__ = ["ArrayPair", "HostDirectory", "MmapPair", "open_array_pairs"]


def _advise_random(array: np.ndarray) -> np.ndarray:
    """Hint ``MADV_RANDOM`` on a memory-mapped array's pages.

    Point lookups fault single pages, but the kernel's default
    readahead pulls a ~128 KB window per fault — which quietly pages
    most of a blob in under a random-access load and defeats the
    tier's RSS story.  ``MADV_RANDOM`` turns that off.  No-op on
    platforms without ``madvise`` (or non-mmap arrays).
    """
    mapping = getattr(array, "_mmap", None)
    advise = getattr(mapping, "madvise", None)
    if advise is not None and hasattr(mmap, "MADV_RANDOM"):
        advise(mmap.MADV_RANDOM)
    return array


def _drop_page_cache(path: str | os.PathLike) -> None:
    """Evict a freshly mapped blob's page cache (``POSIX_FADV_DONTNEED``).

    Opening a store verifies every blob digest with a streaming read,
    which leaves the whole file in the page cache; each later mmap
    fault then maps a window of neighbouring *already-cached* pages
    ("fault-around"), quietly making entire blobs resident.
    ``MADV_RANDOM`` can't prevent that — it disables readahead IO, not
    the mapping of cached pages — so evict the cache once at open time
    and let the query load fault in only the pages it touches.  No-op
    where ``posix_fadvise`` is unavailable.
    """
    if not hasattr(os, "posix_fadvise"):
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


def _resident(blob: Path | np.ndarray) -> np.ndarray:
    """A blob loaded whole, its index arrays widened to ``intp``."""
    array = load_blob(blob)
    if array.dtype.kind == "i" and array.dtype != np.intp:
        return array.astype(np.intp)
    return array


def _mapped(path: Path) -> np.ndarray:
    """A blob mapped read-only, as a plain ``ndarray`` view of the map."""
    array = _advise_random(np.load(path, mmap_mode="r", allow_pickle=False))
    _drop_page_cache(path)
    return array.view(np.ndarray)


def _find_last(sorted_values: np.ndarray, needle: str) -> int:
    """Index of the last occurrence of ``needle``, or -1 when absent.

    String blobs are stored as fixed-width UTF-8 bytes (see
    ``compile._pack_blob``); UTF-8 byte order equals code-point order,
    so searching with the encoded needle agrees with the unicode sort
    that produced the blob.  ``bisect`` probes the array in place: the
    same O(log n) element reads as ``np.searchsorted``, without first
    converting the needle to an array (half the cost of a lookup).
    """
    key = needle.encode("utf-8")
    pos = bisect.bisect_right(sorted_values, key) - 1
    if pos >= 0 and sorted_values[pos] == key:
        return pos
    return -1


@dataclass(frozen=True)
class ArrayPair:
    """One (domain, attribute) corpus served from the store's arrays.

    The listing methods (``entity_labels``, ``site_hosts``,
    ``entity_site_hosts``) and ``site_page`` are batched spellings of
    the per-item ones and must equal them exactly; each docstring
    gives the per-item form it stands for.
    """

    domain: str
    attribute: str
    coverage_ks: tuple[int, ...]
    top_hosts: tuple[str, ...]
    site_ptr: np.ndarray = field(repr=False)
    entity_idx: np.ndarray = field(repr=False)
    entity_ptr: np.ndarray = field(repr=False)
    entity_sites: np.ndarray = field(repr=False)
    coverage: np.ndarray = field(repr=False)
    hosts: np.ndarray = field(repr=False)
    hosts_sorted: np.ndarray = field(repr=False)
    host_order: np.ndarray = field(repr=False)
    entity_ids: np.ndarray | None = field(default=None, repr=False)
    ids_sorted: np.ndarray | None = field(default=None, repr=False)
    id_order: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_entities(self) -> int:
        """Entity-database size (coverage denominator)."""
        return len(self.entity_ptr) - 1

    @property
    def n_sites(self) -> int:
        """Number of sites in this corpus."""
        return len(self.site_ptr) - 1

    def resolve_entity(self, entity_id: str) -> int | None:
        """Map a catalog id (or bare index string) to an entity index."""
        if self.ids_sorted is not None:
            pos = _find_last(self.ids_sorted, entity_id)
            if pos >= 0:
                return int(self.id_order[pos])
        if entity_id.isdigit():
            index = int(entity_id)
            if 0 <= index < self.n_entities:
                return index
        return None

    def entity_label(self, entity: int) -> str:
        """Catalog id for an entity index (falls back to the index)."""
        if self.entity_ids is not None:
            return self.entity_ids[entity].decode("utf-8")
        return str(entity)

    def entity_labels(self, entities: Any) -> list[str]:
        """``[entity_label(e) for e in entities]``, in one fancy index."""
        indices = np.asarray(entities, dtype=np.intp)
        if self.entity_ids is not None:
            return unpack_texts(self.entity_ids[indices])
        return [str(entity) for entity in indices.tolist()]

    def sites_of_entity(self, entity: int) -> np.ndarray:
        """Site indices mentioning ``entity`` (ascending)."""
        return self.entity_sites[
            self.entity_ptr[entity] : self.entity_ptr[entity + 1]
        ]

    def entities_on_site(self, site: int) -> np.ndarray:
        """Entity indices mentioned by site ``site``."""
        return self.entity_idx[self.site_ptr[site] : self.site_ptr[site + 1]]

    def site_page(self, site: int, offset: int, count: int):
        """``(len(row), row[offset:offset + count])`` of a site's row.

        ``row`` is ``entities_on_site(site)``.  Under ``mmap`` the
        slice is a lazy view of the map, so only the page's rows are
        faulted in.
        """
        begin = int(self.site_ptr[site])
        end = int(self.site_ptr[site + 1])
        page = self.entity_idx[begin + offset : min(begin + offset + count, end)]
        return end - begin, page

    def entity_site_hosts(self, entity: int) -> list[str]:
        """``site_hosts(sites_of_entity(entity))``: ascending site order."""
        return unpack_texts(self.hosts[self.sites_of_entity(entity)])

    def site_host(self, site: int) -> str:
        """Host name for a site index."""
        return self.hosts[site].decode("utf-8")

    def site_hosts(self, sites: Any) -> list[str]:
        """``[site_host(s) for s in sites]``, in one fancy index."""
        return unpack_texts(self.hosts[np.asarray(sites, dtype=np.intp)])

    def site_of_host(self, host: str) -> int | None:
        """Site index for a host name, or None when unknown."""
        pos = _find_last(self.hosts_sorted, host)
        if pos < 0:
            return None
        return int(self.host_order[pos])

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
        """Bounded greedy set cover over the CSR arrays."""
        view = CsrView(self.n_entities, self.site_ptr, self.entity_idx)
        return run_set_cover(view, self.site_host, budget)


# The benchmark's per-layer tracer (perfbench/layers.py) imports the
# mmap tier's pair class by this name and patches its methods; both
# array residencies answer through ArrayPair, so the name is bound to it.
MmapPair = ArrayPair


@dataclass(frozen=True)
class HostDirectory:
    """Every pair's hosts in one index, for the resident tier.

    A site request without ``domain``/``attribute`` asks every pair for
    the host; one binary search here answers for all of them.  Entries
    are the CRC-32 of each packed host, sorted with ties by (pair,
    site); a hit is confirmed against the pair's host blob, so a CRC
    collision costs a comparison, never a wrong answer.  Checksums
    instead of a copy of the host strings keep the index at 12 bytes
    per site; the columns are held as ``memoryview`` so each probe
    reads a plain ``int`` (a numpy scalar per probe doubles a lookup).
    """

    keys: tuple[tuple[str, str], ...]
    texts: tuple[np.ndarray, ...] = field(repr=False)
    checksums: memoryview = field(repr=False)
    pair_no: memoryview = field(repr=False)
    sites: memoryview = field(repr=False)

    @classmethod
    def build(cls, pairs: dict[tuple[str, str], ArrayPair]) -> "HostDirectory":
        """Index the ``hosts`` blobs of ``pairs``."""
        keys = tuple(sorted(pairs))
        sizes = [pairs[key].n_sites for key in keys]
        checksums = np.concatenate(
            [
                np.fromiter(map(zlib.crc32, pairs[key].hosts.tolist()), np.uint32, size)
                for key, size in zip(keys, sizes)
            ]
        )
        pair_no = np.repeat(np.arange(len(keys), dtype=np.int32), sizes)
        sites = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes])
        order = np.lexsort((sites, pair_no, checksums))
        return cls(
            keys,
            tuple(pairs[key].hosts for key in keys),
            memoryview(checksums[order]),
            memoryview(pair_no[order]),
            memoryview(sites[order]),
        )

    def lookup(self, host: str) -> list[tuple[tuple[str, str], int]]:
        """``(pair key, site)`` for every pair with ``host``, in key order.

        Within a pair the largest matching site wins, as a host map's
        last duplicate would.
        """
        key = host.encode("utf-8")
        checksum = zlib.crc32(key)
        pos = bisect.bisect_left(self.checksums, checksum)
        found: dict[int, int] = {}
        while pos < len(self.checksums) and self.checksums[pos] == checksum:
            number, site = self.pair_no[pos], self.sites[pos]
            if self.texts[number][site] == key:
                found[number] = site
            pos += 1
        return [(self.keys[number], site) for number, site in found.items()]


def open_array_pairs(
    artifacts: StoreArtifacts, resident: bool
) -> tuple[dict[tuple[str, str], ArrayPair], dict[str, Any]]:
    """Open every pair of a compiled store, loaded whole or mapped.

    ``resident`` loads each blob into memory (the ``ram`` tier; an
    unpublished store from ``materialize_store`` is already there);
    otherwise each published blob is memory-mapped (``mmap``).  Demand
    tables ride along.
    """
    load = _resident if resident else _mapped
    pairs: dict[tuple[str, str], ArrayPair] = {}
    for row in artifacts.meta["pairs"]:
        key = (row["domain"], row["attribute"])
        pairs[key] = ArrayPair(
            domain=row["domain"],
            attribute=row["attribute"],
            coverage_ks=tuple(int(k) for k in row["ks"]),
            top_hosts=tuple(row["top_hosts"]),
            **{name: load(blob) for name, blob in artifacts.pair_blobs[key].items()},
        )
    return pairs, dict(artifacts.demand)
