"""Deterministic content fingerprints for cacheable artifacts.

A cache key must change exactly when the artifact it names would: the
fingerprint therefore hashes a *canonical* JSON rendering of everything
that determines the artifact's bytes — the generator parameters
(dataclass fields), the scale preset, the derived per-experiment seed,
and the artifact kind — never object identities, ``repr`` strings, or
salted ``hash()`` values (Python string hashing differs across
processes, which would silently split the cache between workers).

The scheme is versioned: bump ``SCHEMA_VERSION`` whenever the meaning
of an artifact kind changes (e.g. a generator tweak that keeps its
parameters but changes its output), which orphans all old entries
rather than serving stale bytes.

:func:`derive_seed` is the one stream-seed derivation: the pipeline's
corpora and traffic logs and the load generator's request and arrival
streams all seed from it, so a label names the same stream in every
process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from typing import Any, Mapping

import numpy as np

__all__ = ["SCHEMA_VERSION", "canonical_payload", "derive_seed", "fingerprint"]

#: Bump to invalidate every existing cache entry (format/semantics change).
SCHEMA_VERSION = 1


def canonical_payload(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-serializable primitives.

    Dataclasses become sorted field dicts, mappings get sorted string
    keys, sequences become lists, and numpy scalars/arrays collapse to
    Python numbers/nested lists.  Raises ``TypeError`` for values with
    no canonical form (functions, open files, ...) so accidental
    under-specification fails loudly instead of fingerprinting object
    identity.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical_payload(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, Mapping):
        return {str(k): canonical_payload(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} into a cache key; "
        "pass primitives, dataclasses, mappings, sequences, or arrays"
    )


def fingerprint(kind: str, **components: Any) -> str:
    """SHA-256 hex digest naming one artifact.

    Args:
        kind: Artifact kind tag (``incidence``, ``traffic``,
            ``table2``, ``robustness``, ...); part of the key so two
            artifact types derived from the same inputs never collide.
        **components: Everything that determines the artifact's bytes.

    Returns:
        64-char lowercase hex digest, stable across processes and runs.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "components": canonical_payload(components),
    }
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def derive_seed(seed: int, label: str) -> int:
    """Per-stream RNG seed from a master seed and a stream label.

    CRC-32 rather than ``hash()`` keeps the value stable across
    processes, so every run, worker and client derives the same stream
    for the same ``(seed, label)``.
    """
    return (seed * 7_368_787 + zlib.crc32(label.encode())) & 0x7FFFFFFF
