"""Content-addressed, on-disk artifact cache with integrity checking.

Every expensive intermediate of the experiment pipeline — generated
incidences, simulated traffic demand vectors, Table 2 graph metrics,
robustness curves — is a pure function of (generator parameters, scale,
seed, artifact kind).  :class:`ArtifactCache` maps the fingerprint of
those inputs (:mod:`repro.perf.fingerprint`) to an on-disk blob:

- incidences via the existing :mod:`repro.io` ``.npz`` round-trip
  (exact, so a cache hit is byte-for-byte the regenerated artifact);
- raw array bundles via ``numpy`` ``.npz``;
- row-oriented records (e.g. Table 2 metrics) as JSON lines.

The cache is safe for concurrent writers: blobs are published through
:func:`repro.io.atomic_publish` (process-unique temp file + atomic
``os.replace``), so parallel workers racing on the same key simply
last-write-win with identical bytes.  A byte budget turns it into an
LRU: reads refresh the entry mtime and :meth:`ArtifactCache.put`
evicts oldest-read entries once the budget is exceeded.

**Integrity**: every publish also records the blob's sha256 in a
``.sha256`` sidecar, and every read verifies it before decoding.  An
entry that fails verification — or that decodes to garbage — is never
treated as a silent miss: it is *quarantined* (moved, with its sidecar,
into a ``quarantine/`` subdirectory for post-mortem), counted in
:attr:`CacheStats.quarantined`, logged, and then reported as a miss so
the caller regenerates.  ``tests/test_resilience_chaos.py`` drives this
path with deliberate blob corruption.

The default location honours the ``REPRO_CACHE_DIR`` environment
variable (escape hatch: point it at a tmpfs, a shared volume, or a
throwaway dir) and falls back to ``~/.cache/repro-artifacts``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.core.incidence import BipartiteIncidence
from repro.io import atomic_publish, atomic_write_text, load_incidence, save_incidence
from repro.resilience import active_plan

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "ENV_CACHE_DIR",
    "QUARANTINE_DIR",
    "active_cache",
    "configure_cache",
    "resolve_cache_dir",
]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Subdirectory (under the cache root) holding quarantined blobs.
QUARANTINE_DIR = "quarantine"

_DIGEST_SUFFIX = ".sha256"

_log = logging.getLogger(__name__)


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache instance (merged across workers later)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another instance's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions
        self.quarantined += other.quarantined

    def as_dict(self) -> dict[str, float]:
        """JSON-ready rendering, including the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "hit_rate": round(self.hit_rate, 4),
        }


def resolve_cache_dir(explicit: str | Path | None = None) -> Path:
    """The cache directory: explicit arg > ``REPRO_CACHE_DIR`` > default."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-artifacts"


def _sha256_file(path: Path) -> str:
    """Hex sha256 of a file's bytes, streamed in 1 MiB chunks.

    Store blobs (CSR arrays) run to hundreds of MB; a whole-file
    ``read_bytes()`` here would spike every opener's RSS by the
    largest blob's size and defeat the mmap tier.
    """
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactCache:
    """Fingerprint-keyed blob store with LRU eviction and statistics.

    Args:
        directory: Root directory; created lazily on first put.
        max_bytes: Optional byte budget.  ``put`` evicts the
            least-recently-read entries once the total exceeds it; the
            entry just written is never evicted by its own put.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.directory = resolve_cache_dir(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    # -- key/path plumbing --------------------------------------------------

    def _path(self, key: str, suffix: str) -> Path:
        """Blob path for a fingerprint (sharded on the first hex byte)."""
        return self.directory / key[:2] / f"{key}{suffix}"

    @staticmethod
    def _sidecar(path: Path) -> Path:
        """The ``.sha256`` digest sidecar for a blob path."""
        return path.with_name(path.name + _DIGEST_SUFFIX)

    @property
    def quarantine_dir(self) -> Path:
        """Directory quarantined (corrupt) blobs are moved into."""
        return self.directory / QUARANTINE_DIR

    def _publish(self, path: Path, write) -> None:
        """Atomically write a blob, record its digest, enforce budget.

        The digest is computed over the temp file and its sidecar
        written *before* the rename publishes the blob, so the sidecar
        always describes the bytes that were actually written, and no
        reader (another process sharing the directory) can find the
        blob without it.  Anything that mangles the blob afterwards
        (bit rot, torn writes from outside, an injected corruption
        fault) is caught by the read-side verification.
        """
        plan = active_plan()
        if plan is not None:
            # op=stall wedges the publish (path name is "<key><suffix>",
            # so stem recovers the key); the attempt timeout must trip.
            plan.stall_cache_io(path.stem, path)

        def _write(tmp: Path) -> None:
            write(tmp)
            atomic_write_text(self._sidecar(path), _sha256_file(tmp) + "\n")

        atomic_publish(path, _write)
        self.stats.puts += 1
        if plan is not None:
            # path name is "<key><suffix>", so stem recovers the key.
            plan.corrupt_blob(path.stem, path)
        self._enforce_budget(keep=path)

    def _verified(self, path: Path) -> bool:
        """True when the blob's bytes match its recorded digest."""
        sidecar = self._sidecar(path)
        if not sidecar.is_file():
            return False  # integrity unknowable: treat as corrupt
        expected = sidecar.read_text(encoding="utf-8").strip()
        return expected == _sha256_file(path)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt blob (and sidecar) aside; never delete evidence.

        Quarantined entries keep their blob name, so re-quarantining the
        same key overwrites the previous specimen instead of piling up.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        _log.warning(
            "quarantining corrupt cache entry %s (%s)", path.name, reason
        )
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)  # racing reader got there first
        sidecar = self._sidecar(path)
        try:
            os.replace(sidecar, self.quarantine_dir / sidecar.name)
        except OSError:
            sidecar.unlink(missing_ok=True)

    def _read_hit(self, path: Path) -> bool:
        """Account one lookup: verify digest, refresh mtime on hit (LRU)."""
        plan = active_plan()
        if plan is not None:
            # op=stall wedges the read before the blob is touched.
            plan.stall_cache_io(path.stem, path)
        if not path.is_file():
            self.stats.misses += 1
            return False
        if not self._verified(path):
            self._quarantine(path, "content digest mismatch")
            self.stats.quarantined += 1
            self.stats.misses += 1
            return False
        os.utime(path)
        self.stats.hits += 1
        return True

    def _decode_failed(self, path: Path) -> None:
        """A digest-valid blob still failed to decode: quarantine it.

        Converts the already-counted hit into a quarantined miss, so
        callers regenerate and the corruption is visible in stats —
        never a silent miss.
        """
        self._quarantine(path, "undecodable blob")
        self.stats.quarantined += 1
        self.stats.hits -= 1
        self.stats.misses += 1

    # -- incidence blobs ----------------------------------------------------

    def get_incidence(self, key: str) -> BipartiteIncidence | None:
        """Load a cached incidence, or None on miss."""
        path = self._path(key, ".npz")
        if not self._read_hit(path):
            return None
        try:
            return load_incidence(path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # BadZipFile: a truncated ``.npz`` (torn mid-write) subclasses
            # Exception directly, not OSError/ValueError.
            self._decode_failed(path)
            return None

    def put_incidence(self, key: str, incidence: BipartiteIncidence) -> None:
        """Store an incidence via the :mod:`repro.io` round-trip."""
        path = self._path(key, ".npz")
        self._publish(
            path, lambda tmp: save_incidence(incidence, tmp, compressed=False)
        )

    # -- raw array bundles --------------------------------------------------

    def get_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Load a cached array bundle, or None on miss."""
        path = self._path(key, ".npz")
        if not self._read_hit(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            self._decode_failed(path)
            return None

    def put_arrays(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Store named arrays as an (uncompressed, exact) ``.npz``."""
        path = self._path(key, ".npz")
        self._publish(path, lambda tmp: np.savez(tmp, **arrays))

    # -- JSON-lines records -------------------------------------------------

    def get_records(self, key: str) -> list[dict] | None:
        """Load cached JSON-lines records, or None on miss."""
        path = self._path(key, ".jsonl")
        if not self._read_hit(path):
            return None
        try:
            with path.open(encoding="utf-8") as handle:
                return [json.loads(line) for line in handle if line.strip()]
        except (OSError, ValueError):
            self._decode_failed(path)
            return None

    def put_records(self, key: str, records: list[dict]) -> None:
        """Store a list of JSON-serializable rows, one per line."""
        path = self._path(key, ".jsonl")
        text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in records)
        self._publish(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))

    # -- raw file blobs -----------------------------------------------------
    #
    # Opaque single-file artifacts the caller opens *in place* (an
    # individual ``.npy`` destined for ``mmap_mode="r"``).  Unlike the
    # decoding kinds above, a hit hands back the verified blob *path*:
    # the mmap tier must map the published file itself, not a
    # deserialized copy.

    def get_file(self, key: str, suffix: str) -> Path | None:
        """Verified path of a cached raw blob, or None on miss."""
        path = self._path(key, suffix)
        if not self._read_hit(path):
            return None
        return path

    def put_file(self, key: str, suffix: str, write) -> Path:
        """Publish a raw blob via a ``write(tmp_path)`` callback.

        The callback must create ``tmp_path`` (same directory and
        suffix as the final blob, so suffix-sensitive writers like
        ``np.save`` behave).  Returns the published path.
        """
        path = self._path(key, suffix)
        self._publish(path, write)
        return path

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        """All blob paths currently in the cache (sorted for determinism).

        Digest sidecars and quarantined blobs are bookkeeping, not
        entries: they are excluded here and from the byte budget.
        """
        if not self.directory.is_dir():
            return []
        return sorted(
            p
            for p in self.directory.glob("*/*")
            if p.is_file()
            and ".tmp" not in p.name
            and not p.name.endswith(_DIGEST_SUFFIX)
            and p.parent.name != QUARANTINE_DIR
        )

    def quarantined_entries(self) -> list[Path]:
        """Quarantined blob paths (sorted; excludes digest sidecars)."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(
            p
            for p in self.quarantine_dir.iterdir()
            if p.is_file() and not p.name.endswith(_DIGEST_SUFFIX)
        )

    def total_bytes(self) -> int:
        """Total size of all cached blobs."""
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry (and its sidecar); returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            self._sidecar(path).unlink(missing_ok=True)
            removed += 1
        return removed

    def _enforce_budget(self, keep: Path | None = None) -> None:
        """Evict least-recently-read entries beyond ``max_bytes``."""
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self.entries():
            stat = path.stat()
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        # Oldest read first; name as a deterministic tie-break.
        for __, __, path, size in sorted(entries):
            if keep is not None and path == keep:
                continue
            path.unlink(missing_ok=True)
            self._sidecar(path).unlink(missing_ok=True)
            self.stats.evictions += 1
            total -= size
            if total <= self.max_bytes:
                return


# -- process-wide active cache ------------------------------------------------
#
# The experiment runners consult a single process-global cache handle so
# that caching composes with code that never heard of it (extensions,
# benchmarks, user scripts).  ``None`` means caching is off — the
# ``--no-cache`` escape hatch simply never installs a cache.

_ACTIVE: ArtifactCache | None = None


def configure_cache(cache: ArtifactCache | None) -> ArtifactCache | None:
    """Install (or, with ``None``, remove) the process-wide cache.

    Returns the previous handle so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


def active_cache() -> ArtifactCache | None:
    """The currently installed cache, or None when caching is off."""
    return _ACTIVE
