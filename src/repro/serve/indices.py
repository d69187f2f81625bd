"""Immutable read-optimized indices over `repro all` artifacts.

The batch pipeline's manifest (``manifest.json``, written by
:func:`repro.pipeline.runall.write_manifest`) records the experiment
config of a completed run.  :func:`build_index` opens the serving index
for it from the compiled array store (:mod:`repro.store`), whose
compiler reconstructs every spread corpus and traffic dataset through
the *cache-aware* pipeline builders, so against a warm artifact cache
startup is a digest-verified open, and against a cold one the index is
still byte-for-byte the run's own data — same fingerprints, same
generators.

Read-optimized layout per (domain, attribute) pair, compiled once by
:func:`repro.store.build_store`:

- the pipeline's CSR-by-site incidence, for site→entities;
- its transpose (CSR-by-entity) for entity→sites, built with a stable
  argsort so site indices stay ascending within each entity row;
- a dense per-site k-coverage table (``float64[len(ks), n_sites]``)
  answering ``/v1/coverage?k=&t=`` in O(1);
- host and catalog-id string arrays with their sort orders, for
  binary-search resolution.

``backend`` picks the residency: ``ram`` loads those blobs whole and
``mmap`` maps them (``auto`` picks by manifest size).  Both tiers
answer with byte-identical responses.  The manifest machinery lives in
:mod:`repro.store.manifest`, below this layer.

Everything is built once; queries never mutate, so the HTTP layer
reads without locks.
"""

from __future__ import annotations

from repro.store.backend import QueryIndex, choose_backend, open_backend
from repro.store.manifest import Manifest
from repro.store.mmapcsr import ArrayPair

__all__ = ["build_index"]

# The benchmark's per-layer tracer (perfbench/layers.py) imports the ram
# tier's pair class by this name and patches its methods; the ram tier
# answers through ArrayPair, so the name is bound to it.
PairIndex = ArrayPair


def build_index(manifest: Manifest, backend: str = "auto") -> QueryIndex:
    """Build the serving index for a manifest's run.

    ``backend`` selects the storage tier: ``"ram"`` (the compiled
    arrays, resident), ``"mmap"`` (the same arrays, memory-mapped), or
    ``"auto"`` to pick by manifest size.  Both tiers return
    byte-identical query responses; only residency and latency
    differ.  The returned index is immutable and safe for lock-free
    concurrent reads.
    """
    if backend == "auto":
        backend = choose_backend(manifest)
    return open_backend(manifest, backend)
