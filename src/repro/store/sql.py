"""SQLite pair backend: adjacency and coverage queries pushed into SQL.

The image is compiled from the array store (:mod:`repro.store.compile`)
the first time a ``sqlite`` tier opens it (:func:`compile_sqlite`), then
published under ``store_blob_key(identity, "sqlite")`` and
digest-verified on read-back like every other store blob; later opens
reuse it.  The compiler integer-encodes entities and sites, stores the
paper's size-rank order per site, and pre-derives ``kcov`` rows — the
rank of each entity's k-th mention — with a window-function query.  At
query time everything is covered index lookups:

- entity → sites and site → entities walk ``edges`` through its two
  covering indices (insertion order preserved via the ``pos`` column,
  so pagination cursors match the array CSR byte-for-byte);
- coverage-at-k is a single ``COUNT(*)`` over ``kcov`` divided by the
  entity denominator in Python (int/int → float64, bit-identical to
  the precomputed dense table);
- greedy set cover reuses the core lazy-heap algorithm with per-site
  adjacency fetched from SQL on demand;
- demand lookups order occupied bins by absolute distance in SQL with
  the array index as tie-break, matching ``np.argmin``.

Connections are opened lazily per thread *and* per process (read-only
URI mode), so the query pool's worker threads and the sharding tier's
forked workers never share a handle.  Every statement is a constant
string with ``?`` placeholders — enforced by reprolint rule STORE001.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.incidence import rank_by_size
from repro.perf.cache import ArtifactCache
from repro.store.backend import check_top_t, coverage_row, run_set_cover
from repro.store.compile import (
    STORE_FORMAT,
    StoreArtifacts,
    load_blob,
    store_blob_key,
    unpack_texts,
)
from repro.store.demand import query_bin_center

__all__ = [
    "SqliteDemandTable",
    "SqlitePair",
    "SqliteStore",
    "compile_sqlite",
    "open_sqlite_pairs",
]

_SCHEMA = """
CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE pairs(
    pair_id INTEGER PRIMARY KEY,
    domain TEXT NOT NULL,
    attribute TEXT NOT NULL,
    n_entities INTEGER NOT NULL,
    n_sites INTEGER NOT NULL,
    ks TEXT NOT NULL,
    top_hosts TEXT NOT NULL,
    has_ids INTEGER NOT NULL
);
CREATE TABLE sites(
    pair_id INTEGER NOT NULL,
    site INTEGER NOT NULL,
    host TEXT NOT NULL,
    size INTEGER NOT NULL,
    site_rank INTEGER NOT NULL,
    PRIMARY KEY (pair_id, site)
) WITHOUT ROWID;
CREATE INDEX sites_by_host ON sites(pair_id, host, site);
CREATE TABLE entities(
    pair_id INTEGER NOT NULL,
    entity INTEGER NOT NULL,
    label TEXT NOT NULL,
    PRIMARY KEY (pair_id, entity)
) WITHOUT ROWID;
CREATE INDEX entities_by_label ON entities(pair_id, label, entity);
CREATE TABLE edges(
    pair_id INTEGER NOT NULL,
    site INTEGER NOT NULL,
    pos INTEGER NOT NULL,
    entity INTEGER NOT NULL,
    PRIMARY KEY (pair_id, site, pos)
) WITHOUT ROWID;
CREATE INDEX edges_by_entity ON edges(pair_id, entity, site);
CREATE TABLE kcov(
    pair_id INTEGER NOT NULL,
    k INTEGER NOT NULL,
    first_rank INTEGER NOT NULL
);
CREATE INDEX kcov_by_rank ON kcov(pair_id, k, first_rank);
CREATE TABLE demand_bins(
    site TEXT NOT NULL,
    source TEXT NOT NULL,
    idx INTEGER NOT NULL,
    center REAL NOT NULL,
    mean REAL NOT NULL,
    PRIMARY KEY (site, source, idx)
) WITHOUT ROWID;
CREATE TABLE demand_meta(
    site TEXT PRIMARY KEY,
    sources TEXT NOT NULL,
    max_reviews INTEGER NOT NULL
);
CREATE TABLE ks_seq(k INTEGER PRIMARY KEY);
"""

# The k-th smallest size-rank among each entity's sites: entity e
# counts toward coverage(k, t) iff its k-th mention (in the paper's
# size-ranked site order) sits at rank <= t.  ROW_NUMBER is
# deterministic here because site_rank is a strict permutation.
_KCOV_FILL = """
INSERT INTO kcov(pair_id, k, first_rank)
SELECT pair_id, occ, site_rank FROM (
    SELECT e.pair_id AS pair_id,
           ROW_NUMBER() OVER (
               PARTITION BY e.pair_id, e.entity ORDER BY s.site_rank
           ) AS occ,
           s.site_rank AS site_rank
    FROM edges AS e
    JOIN sites AS s ON s.pair_id = e.pair_id AND s.site = e.site
)
WHERE occ IN (SELECT k FROM ks_seq)
"""

#: Fixed fan-in for batched label/host lookups.  STORE001 demands
#: constant statements, so the ``IN`` list carries a fixed placeholder
#: count and short batches pad by repeating their first index.
_BATCH = 64

_IN_BATCH = "(" + ",".join(["?"] * _BATCH) + ")"

_LABELS_BATCH_SQL = (
    "SELECT entity, label FROM entities WHERE pair_id = ? AND entity IN "
    + _IN_BATCH
)

_HOSTS_BATCH_SQL = (
    "SELECT site, host FROM sites WHERE pair_id = ? AND site IN " + _IN_BATCH
)


class SqliteStore:
    """Lazy per-thread, per-process read-only connections to one store file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._local = threading.local()

    def connection(self) -> sqlite3.Connection:
        """This thread's connection, reopened after a fork."""
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != os.getpid():
            # Read-only by URI (not ``immutable=1``: the file's bytes
            # must stay verifiable against outside corruption, and
            # immutable mode would let SQLite cache torn pages).
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
            )
            self._local.conn = conn
            self._local.pid = os.getpid()
        return conn

    def query(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run one parameterized read query on this thread's connection."""
        return self.connection().execute(sql, params)


@dataclass(frozen=True)
class _SqlCsrView:
    """CSR-by-site duck type over SQL, for the core greedy algorithm.

    ``site_sizes`` is one ordered scan of the ``sites`` table;
    ``site_entities`` fetches a single site's adjacency list, so the
    lazy greedy loop touches only the rows it actually re-evaluates.
    """

    store: SqliteStore
    pair_id: int
    n_entities: int
    n_sites: int

    def site_sizes(self) -> np.ndarray:
        rows = self.store.query(
            "SELECT size FROM sites WHERE pair_id = ? ORDER BY site",
            (self.pair_id,),
        )
        return np.fromiter(
            (row[0] for row in rows), dtype=np.int64, count=self.n_sites
        )

    def site_entities(self, site: int) -> np.ndarray:
        rows = self.store.query(
            "SELECT entity FROM edges WHERE pair_id = ? AND site = ?"
            " ORDER BY pos",
            (self.pair_id, int(site)),
        )
        return np.fromiter((row[0] for row in rows), dtype=np.int64)


@dataclass(frozen=True)
class SqlitePair:
    """One (domain, attribute) corpus served from the SQL tier."""

    store: SqliteStore = field(repr=False)
    pair_id: int
    domain: str
    attribute: str
    n_entities: int
    n_sites: int
    coverage_ks: tuple[int, ...]
    top_hosts: tuple[str, ...]
    has_ids: bool

    def resolve_entity(self, entity_id: str) -> int | None:
        """Map a catalog id (or bare index string) to an entity index."""
        if self.has_ids:
            row = self.store.query(
                "SELECT entity FROM entities WHERE pair_id = ? AND label = ?"
                " ORDER BY entity DESC LIMIT 1",
                (self.pair_id, entity_id),
            ).fetchone()
            if row is not None:
                return int(row[0])
        if entity_id.isdigit():
            index = int(entity_id)
            if 0 <= index < self.n_entities:
                return index
        return None

    def entity_label(self, entity: int) -> str:
        """Catalog id for an entity index (falls back to the index)."""
        if self.has_ids:
            row = self.store.query(
                "SELECT label FROM entities WHERE pair_id = ? AND entity = ?",
                (self.pair_id, int(entity)),
            ).fetchone()
            if row is not None:
                return str(row[0])
        return str(entity)

    def _batched_strings(self, sql: str, wanted: list[int]) -> dict[int, str]:
        """index → string over fixed-width ``IN`` batches of ``sql``."""
        found: dict[int, str] = {}
        distinct = sorted(set(wanted))
        for start in range(0, len(distinct), _BATCH):
            chunk = distinct[start : start + _BATCH]
            padded = chunk + [chunk[0]] * (_BATCH - len(chunk))
            for key, value in self.store.query(sql, (self.pair_id, *padded)):
                found[int(key)] = str(value)
        return found

    def entity_labels(self, entities: Any) -> list[str]:
        """Labels for entity indices, in input order, batched over SQL."""
        wanted = [int(e) for e in entities]
        if not self.has_ids or not wanted:
            return [str(e) for e in wanted]
        found = self._batched_strings(_LABELS_BATCH_SQL, wanted)
        return [found.get(e, str(e)) for e in wanted]

    def sites_of_entity(self, entity: int) -> np.ndarray:
        """Site indices mentioning ``entity`` (ascending)."""
        rows = self.store.query(
            "SELECT site FROM edges WHERE pair_id = ? AND entity = ?"
            " ORDER BY site",
            (self.pair_id, int(entity)),
        )
        return np.fromiter((row[0] for row in rows), dtype=np.int64)

    def entities_on_site(self, site: int) -> np.ndarray:
        """Entity indices mentioned by site ``site`` (CSR edge order)."""
        rows = self.store.query(
            "SELECT entity FROM edges WHERE pair_id = ? AND site = ?"
            " ORDER BY pos",
            (self.pair_id, int(site)),
        )
        return np.fromiter((row[0] for row in rows), dtype=np.int64)

    def site_page(self, site: int, offset: int, count: int):
        """``(total, page)`` slice of a site's listing, fetched by page.

        The row count comes from the ``sites.size`` column and the page
        from a ``LIMIT ?/OFFSET ?`` walk of the covering index, so a
        500-entity page of a 60k-entity site never fetches 60k rows.
        """
        row = self.store.query(
            "SELECT size FROM sites WHERE pair_id = ? AND site = ?",
            (self.pair_id, int(site)),
        ).fetchone()
        total = int(row[0]) if row is not None else 0
        if count <= 0 or offset >= total:
            return total, np.empty(0, dtype=np.int64)
        rows = self.store.query(
            "SELECT entity FROM edges WHERE pair_id = ? AND site = ?"
            " ORDER BY pos LIMIT ? OFFSET ?",
            (self.pair_id, int(site), int(count), int(offset)),
        )
        return total, np.fromiter((r[0] for r in rows), dtype=np.int64)

    def entity_site_hosts(self, entity: int) -> list[str]:
        """Hosts of an entity's sites via one join, ascending site order."""
        rows = self.store.query(
            "SELECT s.host FROM edges AS g JOIN sites AS s"
            " ON s.pair_id = g.pair_id AND s.site = g.site"
            " WHERE g.pair_id = ? AND g.entity = ? ORDER BY g.site",
            (self.pair_id, int(entity)),
        )
        return [str(r[0]) for r in rows]

    def site_host(self, site: int) -> str:
        """Host name for a site index."""
        row = self.store.query(
            "SELECT host FROM sites WHERE pair_id = ? AND site = ?",
            (self.pair_id, int(site)),
        ).fetchone()
        if row is None:
            raise LookupError(f"site {site} out of range")
        return str(row[0])

    def site_hosts(self, sites: Any) -> list[str]:
        """Hosts for site indices, in input order, batched over SQL."""
        wanted = [int(s) for s in sites]
        if not wanted:
            return []
        found = self._batched_strings(_HOSTS_BATCH_SQL, wanted)
        missing = [s for s in wanted if s not in found]
        if missing:
            raise LookupError(f"site {missing[0]} out of range")
        return [found[s] for s in wanted]

    def site_of_host(self, host: str) -> int | None:
        """Site index for a host name (last index wins duplicates)."""
        row = self.store.query(
            "SELECT site FROM sites WHERE pair_id = ? AND host = ?"
            " ORDER BY site DESC LIMIT 1",
            (self.pair_id, host),
        ).fetchone()
        return int(row[0]) if row is not None else None

    def coverage_at(self, k: int, top_t: int) -> float:
        """k-coverage of the top-``top_t`` sites via a ``kcov`` count.

        Raises:
            KeyError: ``k`` was not precomputed (outside the config ks).
            ValueError: ``top_t`` outside ``[1, n_sites]``.
        """
        coverage_row(self.coverage_ks, k)
        check_top_t(top_t, self.n_sites)
        row = self.store.query(
            "SELECT COUNT(*) FROM kcov WHERE pair_id = ? AND k = ?"
            " AND first_rank <= ?",
            (self.pair_id, int(k), int(top_t)),
        ).fetchone()
        return row[0] / max(self.n_entities, 1)

    def set_cover(self, budget: int) -> dict[str, object]:
        """Bounded greedy set cover with SQL-fetched adjacency."""
        view = _SqlCsrView(
            store=self.store,
            pair_id=self.pair_id,
            n_entities=self.n_entities,
            n_sites=self.n_sites,
        )
        return run_set_cover(view, self.site_host, budget)


@dataclass(frozen=True)
class SqliteDemandTable:
    """Figure-7 demand lookup answered from the ``demand_bins`` table."""

    store: SqliteStore = field(repr=False)
    site: str
    sources: tuple[str, ...]
    max_reviews: int

    def lookup(self, source: str, n_reviews: int) -> dict[str, float]:
        """Demand estimate for an entity with ``n_reviews`` reviews.

        Raises:
            KeyError: Unknown demand source.
            ValueError: Negative review count.
        """
        if source not in self.sources:
            raise KeyError(
                f"unknown source {source!r}; have {sorted(self.sources)}"
            )
        if n_reviews < 0:
            raise ValueError("n_reviews must be non-negative")
        center = query_bin_center(n_reviews)
        # Nearest occupied bin; the idx tie-break reproduces
        # np.argmin's first-minimum semantics exactly.
        row = self.store.query(
            "SELECT center, mean FROM demand_bins"
            " WHERE site = ? AND source = ?"
            " ORDER BY ABS(center - ?) ASC, idx ASC LIMIT 1",
            (self.site, source, center),
        ).fetchone()
        return {
            "bin_center": float(row[0]),
            "mean_normalized_demand": round(float(row[1]), 6),
        }


def _write_sqlite(tmp: Path, artifacts: StoreArtifacts) -> None:
    """Write the full SQL tier into ``tmp`` from the store's array blobs."""
    conn = sqlite3.connect(tmp)
    try:
        conn.execute("PRAGMA journal_mode=OFF")
        conn.execute("PRAGMA synchronous=OFF")
        conn.executescript(_SCHEMA)
        conn.executemany(
            "INSERT INTO meta(key, value) VALUES (?, ?)",
            [("format", STORE_FORMAT)],
        )
        ks: list[int] = []
        for pair_id, row in enumerate(artifacts.meta["pairs"]):
            ks = row["ks"]  # one config => identical ks across pairs
            blobs = artifacts.pair_blobs[(row["domain"], row["attribute"])]
            n_entities, n_sites = row["n_entities"], row["n_sites"]
            conn.execute(
                "INSERT INTO pairs(pair_id, domain, attribute, n_entities,"
                " n_sites, ks, top_hosts, has_ids)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    pair_id,
                    row["domain"],
                    row["attribute"],
                    n_entities,
                    n_sites,
                    json.dumps(row["ks"]),
                    json.dumps(row["top_hosts"]),
                    int(row["has_ids"]),
                ),
            )
            site_ptr = load_blob(blobs["site_ptr"]).astype(np.int64)
            sizes = np.diff(site_ptr)
            rank_of = np.empty(n_sites, dtype=np.int64)
            rank_of[rank_by_size(sizes)] = np.arange(1, n_sites + 1, dtype=np.int64)
            conn.executemany(
                "INSERT INTO sites(pair_id, site, host, size, site_rank)"
                " VALUES (?, ?, ?, ?, ?)",
                zip(
                    (pair_id,) * n_sites,
                    range(n_sites),
                    unpack_texts(load_blob(blobs["hosts"])),
                    sizes.tolist(),
                    rank_of.tolist(),
                ),
            )
            if row["has_ids"]:
                conn.executemany(
                    "INSERT INTO entities(pair_id, entity, label)"
                    " VALUES (?, ?, ?)",
                    zip(
                        (pair_id,) * n_entities,
                        range(n_entities),
                        unpack_texts(load_blob(blobs["entity_ids"])),
                    ),
                )
            entity_idx = load_blob(blobs["entity_idx"])
            n_edges = len(entity_idx)
            site_per_edge = np.repeat(np.arange(n_sites, dtype=np.int64), sizes)
            pos_per_edge = np.arange(n_edges, dtype=np.int64) - np.repeat(
                site_ptr[:-1], sizes
            )
            conn.executemany(
                "INSERT INTO edges(pair_id, site, pos, entity)"
                " VALUES (?, ?, ?, ?)",
                zip(
                    (pair_id,) * n_edges,
                    site_per_edge.tolist(),
                    pos_per_edge.tolist(),
                    entity_idx.tolist(),
                ),
            )
        conn.executemany(
            "INSERT INTO ks_seq(k) VALUES (?)", [(int(k),) for k in ks]
        )
        conn.execute(_KCOV_FILL)
        for row in artifacts.meta["demand"]:
            site = row["site"]
            conn.execute(
                "INSERT INTO demand_meta(site, sources, max_reviews)"
                " VALUES (?, ?, ?)",
                (site, json.dumps(row["sources"]), row["max_reviews"]),
            )
            for source in row["sources"]:
                counts, means = artifacts.demand[site].sources[source]
                conn.executemany(
                    "INSERT INTO demand_bins(site, source, idx, center, mean)"
                    " VALUES (?, ?, ?, ?, ?)",
                    zip(
                        (site,) * len(counts),
                        (source,) * len(counts),
                        range(len(counts)),
                        counts.tolist(),
                        means.tolist(),
                    ),
                )
        conn.commit()
    finally:
        conn.close()


def compile_sqlite(artifacts: StoreArtifacts, cache: ArtifactCache) -> Path:
    """Verified path of the store's SQLite image, compiled on first use.

    Raises:
        RuntimeError: The freshly published image failed digest
            verification (e.g. an injected corruption fault).
    """
    key = store_blob_key(artifacts.identity, "sqlite")
    path = cache.get_file(key, ".sqlite")
    if path is None:
        cache.put_file(key, ".sqlite", lambda tmp: _write_sqlite(tmp, artifacts))
        path = cache.get_file(key, ".sqlite")
        if path is None:
            raise RuntimeError(
                f"sqlite compile for identity {artifacts.identity} failed "
                "read-back verification (blob quarantined); refusing to "
                "serve a torn store"
            )
    return path


def open_sqlite_pairs(
    artifacts: StoreArtifacts, cache: ArtifactCache
) -> tuple[dict[tuple[str, str], SqlitePair], dict[str, Any]]:
    """Open the SQL tier of a compiled store (pairs and demand tables)."""
    store = SqliteStore(compile_sqlite(artifacts, cache))
    pairs: dict[tuple[str, str], SqlitePair] = {}
    for row in store.query(
        "SELECT pair_id, domain, attribute, n_entities, n_sites, ks,"
        " top_hosts, has_ids FROM pairs ORDER BY pair_id"
    ).fetchall():
        pair_id, domain, attribute, n_entities, n_sites, ks, tops, has_ids = row
        pairs[(domain, attribute)] = SqlitePair(
            store=store,
            pair_id=int(pair_id),
            domain=str(domain),
            attribute=str(attribute),
            n_entities=int(n_entities),
            n_sites=int(n_sites),
            coverage_ks=tuple(int(k) for k in json.loads(ks)),
            top_hosts=tuple(json.loads(tops)),
            has_ids=bool(has_ids),
        )
    demand: dict[str, Any] = {}
    for site, sources, max_reviews in store.query(
        "SELECT site, sources, max_reviews FROM demand_meta ORDER BY site"
    ).fetchall():
        demand[str(site)] = SqliteDemandTable(
            store=store,
            site=str(site),
            sources=tuple(json.loads(sources)),
            max_reviews=int(max_reviews),
        )
    return pairs, demand
