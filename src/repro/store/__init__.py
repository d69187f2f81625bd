"""Tiered query storage behind the serving contract.

The paper's corpus is web-scale; an in-RAM CSR index caps catalog size
at memory.  :func:`build_store` compiles a run manifest once into
cache-addressed array blobs (CSR both ways, the dense coverage table,
the full greedy set-cover order with its gains, host/id strings with
their sort orders, demand bins), and two tiers open them, both
rendering byte-identical ``/v1/*`` responses through the one
:class:`~repro.store.mmapcsr.ArrayPair`: ``ram`` loads the blobs whole,
as published, and ``mmap`` maps them with ``mmap_mode="r"`` so a
corpus past the RAM threshold costs only the pages its queries touch.
No answer is computed per request; set cover is a slice of the
compiled greedy order.

Layering: ``store`` sits *below* ``serve`` (it may import ``core``,
``perf``, ``pipeline``, ``resilience``; never the HTTP tier) so the
compiler can run inside ``repro all`` without dragging in a server.
"""

from repro.store.backend import (
    BACKENDS,
    QueryIndex,
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

__all__ = [
    "ArrayPair",
    "BACKENDS",
    "DemandTable",
    "Manifest",
    "QueryIndex",
    "STORE_FORMAT",
    "StoreArtifacts",
    "build_store",
    "choose_backend",
    "load_manifest",
    "manifest_identity",
    "open_backend",
    "store_blob_key",
]
