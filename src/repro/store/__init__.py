"""Tiered query storage behind the serving contract.

The paper's corpus is web-scale; an in-RAM CSR index caps catalog size
at memory.  :func:`build_store` compiles a run manifest once into
cache-addressed array blobs (CSR both ways, the dense coverage table,
host/id strings with their sort orders, demand bins), and three
interchangeable tiers open them, all rendering byte-identical
``/v1/*`` responses:

- ``ram`` loads the blobs whole and ``mmap`` maps them with
  ``mmap_mode="r"``; both answer through the one
  :class:`~repro.store.mmapcsr.ArrayPair`;
- ``sqlite`` queries an image (adjacency, k-coverage ranks, demand
  bins) that :mod:`repro.store.sql` compiles from the blobs on its
  first open.

Layering: ``store`` sits *below* ``serve`` (it may import ``core``,
``perf``, ``pipeline``, ``resilience``; never the HTTP tier) so the
compiler can run inside ``repro all`` without dragging in a server.
"""

from repro.store.backend import (
    BACKENDS,
    CsrView,
    PairBackend,
    QueryIndex,
    StorageBackend,
    choose_backend,
    open_backend,
)
from repro.store.compile import (
    STORE_FORMAT,
    StoreArtifacts,
    build_store,
    store_blob_key,
)
from repro.store.demand import DemandTable
from repro.store.manifest import Manifest, load_manifest, manifest_identity
from repro.store.mmapcsr import ArrayPair
from repro.store.sql import SqliteDemandTable, SqlitePair, SqliteStore

__all__ = [
    "ArrayPair",
    "BACKENDS",
    "CsrView",
    "DemandTable",
    "Manifest",
    "PairBackend",
    "QueryIndex",
    "STORE_FORMAT",
    "SqliteDemandTable",
    "SqlitePair",
    "SqliteStore",
    "StorageBackend",
    "StoreArtifacts",
    "build_store",
    "choose_backend",
    "load_manifest",
    "manifest_identity",
    "open_backend",
    "store_blob_key",
]
