"""Unit tests for repro.perf: fingerprints and the artifact cache."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core.incidence import BipartiteIncidence
from repro.perf import cache as cache_module
from repro.perf.cache import (
    ENV_CACHE_DIR,
    ArtifactCache,
    CacheStats,
    active_cache,
    configure_cache,
    resolve_cache_dir,
)
from repro.perf.fingerprint import canonical_payload, fingerprint


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Params:
    n: int
    rate: float


def test_fingerprint_is_stable_and_hex():
    key = fingerprint("incidence", seed=3, profile=_Params(n=10, rate=0.5))
    assert key == fingerprint("incidence", seed=3, profile=_Params(n=10, rate=0.5))
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")


def test_fingerprint_changes_with_any_component():
    base = fingerprint("incidence", seed=3, n=10)
    assert fingerprint("incidence", seed=4, n=10) != base
    assert fingerprint("incidence", seed=3, n=11) != base
    assert fingerprint("traffic", seed=3, n=10) != base  # kind is part of the key


def test_fingerprint_kwarg_order_is_irrelevant():
    assert fingerprint("k", a=1, b=2) == fingerprint("k", b=2, a=1)


def test_canonical_payload_normalizes_numpy_and_dataclasses():
    payload = canonical_payload(
        {"arr": np.array([1, 2]), "i": np.int64(3), "f": np.float64(0.5),
         "params": _Params(n=1, rate=2.0)}
    )
    assert payload["arr"] == [1, 2]
    assert payload["i"] == 3 and isinstance(payload["i"], int)
    assert payload["f"] == 0.5 and isinstance(payload["f"], float)
    assert payload["params"]["__dataclass__"] == "_Params"


def test_canonical_payload_rejects_uncanonicalizable_values():
    with pytest.raises(TypeError):
        canonical_payload(object())


# ---------------------------------------------------------------------------
# CacheStats
# ---------------------------------------------------------------------------


def test_cache_stats_hit_rate_and_merge():
    stats = CacheStats()
    assert stats.hit_rate == 0.0  # no lookups yet
    stats.hits, stats.misses = 3, 1
    assert stats.hit_rate == pytest.approx(0.75)
    other = CacheStats(hits=1, misses=1, puts=2, evictions=1)
    stats.merge(other)
    assert (stats.hits, stats.misses, stats.puts, stats.evictions) == (4, 2, 2, 1)
    assert stats.as_dict()["hit_rate"] == pytest.approx(4 / 6, abs=1e-4)


# ---------------------------------------------------------------------------
# ArtifactCache round-trips
# ---------------------------------------------------------------------------


def test_incidence_round_trip_is_exact(tmp_path, tiny_incidence):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("incidence", fixture="tiny")
    assert cache.get_incidence(key) is None
    cache.put_incidence(key, tiny_incidence)
    loaded = cache.get_incidence(key)
    assert loaded is not None
    assert loaded.site_hosts == tiny_incidence.site_hosts
    np.testing.assert_array_equal(loaded.site_ptr, tiny_incidence.site_ptr)
    np.testing.assert_array_equal(loaded.entity_idx, tiny_incidence.entity_idx)
    assert cache.stats.as_dict() == {
        "hits": 1, "misses": 1, "puts": 1, "evictions": 0,
        "quarantined": 0, "hit_rate": 0.5,
    }


def test_array_bundle_round_trip_is_exact(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("traffic", site="x")
    arrays = {
        "a": np.arange(5, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 7),
    }
    cache.put_arrays(key, arrays)
    loaded = cache.get_arrays(key)
    assert set(loaded) == {"a", "b"}
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == arrays[name].dtype


def test_records_round_trip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("table2-row", domain="d")
    rows = [{"domain": "d", "diameter": 4, "pct": 99.8}]
    cache.put_records(key, rows)
    assert cache.get_records(key) == rows


def test_distinct_kinds_never_collide(tmp_path, tiny_incidence):
    cache = ArtifactCache(tmp_path)
    inc_key = fingerprint("incidence", seed=0)
    arr_key = fingerprint("traffic", seed=0)
    assert inc_key != arr_key
    cache.put_incidence(inc_key, tiny_incidence)
    cache.put_arrays(arr_key, {"x": np.ones(3)})
    assert cache.get_incidence(inc_key) is not None
    assert cache.get_arrays(arr_key) is not None


def test_corrupt_entry_is_dropped_and_counted_as_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("traffic", site="torn")
    cache.put_arrays(key, {"x": np.ones(3)})
    (entry,) = cache.entries()
    entry.write_bytes(b"not an npz")
    assert cache.get_arrays(key) is None
    assert cache.stats.hits == 0
    assert cache.stats.misses == 1
    assert cache.entries() == []  # the torn blob was removed


def test_entries_excludes_temp_files(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put_records(fingerprint("k", i=1), [{"a": 1}])
    (entry,) = cache.entries()
    litter = entry.with_name(f"{entry.stem}.tmp999{entry.suffix}")
    litter.write_text("partial")
    assert cache.entries() == [entry]


# ---------------------------------------------------------------------------
# Integrity: digests, quarantine, and the decode swallow sites
# ---------------------------------------------------------------------------
#
# Every corrupt-read path must end in the quarantine directory with the
# `quarantined` counter bumped — never a silent miss that regenerates
# over the evidence.


def _resign(entry):
    """Rewrite an entry's digest sidecar to match its (mangled) bytes.

    Makes the digest check pass so the *decoder* swallow sites are the
    ones exercised, not the verification layer.
    """
    import hashlib

    sidecar = entry.with_name(entry.name + ".sha256")
    sidecar.write_text(hashlib.sha256(entry.read_bytes()).hexdigest() + "\n")


def _assert_quarantined(cache, n=1):
    assert cache.stats.quarantined == n
    assert len(cache.quarantined_entries()) == n
    assert cache.entries() == []  # gone from the readable cache...
    assert cache.stats.hits == 0  # ...and never reported as a hit


def test_digest_mismatch_is_quarantined_not_silently_missed(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("traffic", site="bitrot")
    cache.put_arrays(key, {"x": np.ones(3)})
    (entry,) = cache.entries()
    data = bytearray(entry.read_bytes())
    data[len(data) // 2] ^= 0xFF  # one flipped bit, stale sidecar
    entry.write_bytes(bytes(data))
    assert cache.get_arrays(key) is None
    assert cache.stats.misses == 1
    _assert_quarantined(cache)


def test_missing_sidecar_is_quarantined(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("traffic", site="unsigned")
    cache.put_arrays(key, {"x": np.ones(3)})
    (entry,) = cache.entries()
    entry.with_name(entry.name + ".sha256").unlink()
    assert cache.get_arrays(key) is None
    _assert_quarantined(cache)


def test_a_published_blob_already_has_its_sidecar(tmp_path, monkeypatch):
    """A second cache over the same directory that reads a blob the
    moment its rename publishes it finds the digest sidecar in place:
    a verified hit, never a quarantined fresh blob."""
    writer = ArtifactCache(tmp_path)
    reader = ArtifactCache(tmp_path)
    key = fingerprint("records", probe="publish-window")
    probes = []
    publish = cache_module.atomic_publish

    def publish_then_probe(path, write):
        published = publish(path, write)
        probes.append(reader.get_records(key))
        return published

    monkeypatch.setattr(cache_module, "atomic_publish", publish_then_probe)
    writer.put_records(key, [{"a": 1}])
    assert probes == [[{"a": 1}]]
    assert reader.stats.quarantined == 0
    assert writer.get_records(key) == [{"a": 1}]


def test_truncated_npz_hits_quarantine(tmp_path, tiny_incidence):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("incidence", fixture="torn")
    cache.put_incidence(key, tiny_incidence)
    (entry,) = cache.entries()
    entry.write_bytes(entry.read_bytes()[:40])  # torn mid-write
    _resign(entry)  # digest passes; np.load is what fails
    assert cache.get_incidence(key) is None
    assert cache.stats.misses == 1
    _assert_quarantined(cache)


def test_mangled_json_lines_hit_quarantine(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("table2-row", domain="mangled")
    cache.put_records(key, [{"domain": "d", "diameter": 4}])
    (entry,) = cache.entries()
    entry.write_text('{"domain": "d", "diam')  # not valid JSON lines
    _resign(entry)
    assert cache.get_records(key) is None
    _assert_quarantined(cache)


def test_missing_key_blob_hits_quarantine(tmp_path, tiny_incidence):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("incidence", fixture="wrong-keys")
    cache.put_incidence(key, tiny_incidence)
    (entry,) = cache.entries()
    np.savez(entry.open("wb"), unrelated=np.ones(2))  # valid npz, wrong keys
    _resign(entry)
    assert cache.get_incidence(key) is None
    _assert_quarantined(cache)


def test_quarantine_preserves_the_corrupt_bytes(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("table2-row", domain="evidence")
    cache.put_records(key, [{"a": 1}])
    (entry,) = cache.entries()
    entry.write_text("forensic evidence")
    assert cache.get_records(key) is None
    (quarantined,) = cache.quarantined_entries()
    assert quarantined.read_text() == "forensic evidence"


def test_regeneration_after_quarantine_round_trips(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = fingerprint("table2-row", domain="healed")
    cache.put_records(key, [{"a": 1}])
    (entry,) = cache.entries()
    entry.write_text("junk")
    assert cache.get_records(key) is None  # quarantined
    cache.put_records(key, [{"a": 1}])  # regenerated by the caller
    assert cache.get_records(key) == [{"a": 1}]
    assert cache.stats.quarantined == 1


# ---------------------------------------------------------------------------
# LRU eviction
# ---------------------------------------------------------------------------


def _put_blob(cache: ArtifactCache, tag: str, mtime: int) -> str:
    key = fingerprint("blob", tag=tag)
    cache.put_records(key, [{"tag": tag, "pad": "x" * 200}])
    path = cache._path(key, ".jsonl")
    os.utime(path, ns=(mtime, mtime))  # pin read-recency for the test
    return key


def test_eviction_removes_least_recently_read_first(tmp_path):
    cache = ArtifactCache(tmp_path, max_bytes=10_000_000)  # no eviction yet
    old = _put_blob(cache, "old", mtime=1_000)
    new = _put_blob(cache, "new", mtime=2_000)
    entry_size = cache.total_bytes() // 2
    # Budget fits two entries; the third put must evict exactly the oldest.
    cache.max_bytes = int(entry_size * 2.5)
    third = _put_blob(cache, "third", mtime=3_000)
    assert cache.stats.evictions == 1
    assert cache.get_records(old) is None
    assert cache.get_records(new) is not None
    assert cache.get_records(third) is not None


def test_fresh_put_is_never_evicted_by_itself(tmp_path):
    cache = ArtifactCache(tmp_path, max_bytes=1)  # nothing fits
    key = fingerprint("blob", tag="only")
    cache.put_records(key, [{"pad": "x" * 500}])
    assert cache.get_records(key) is not None  # survives its own put
    cache.put_records(fingerprint("blob", tag="next"), [{"pad": "y" * 500}])
    assert cache.get_records(key) is None  # evicted by the *next* put


def test_read_refreshes_recency(tmp_path):
    cache = ArtifactCache(tmp_path, max_bytes=10_000_000)
    old = _put_blob(cache, "old", mtime=1_000)
    new = _put_blob(cache, "new", mtime=2_000)
    assert cache.get_records(old) is not None  # refresh: now most recent
    cache.max_bytes = int(cache.total_bytes() // 2 * 2.5)
    _put_blob(cache, "third", mtime=3_000)
    assert cache.get_records(old) is not None
    assert cache.get_records(new) is None  # "new" became the LRU entry


def test_clear_removes_everything(tmp_path):
    cache = ArtifactCache(tmp_path)
    _put_blob(cache, "a", mtime=1)
    _put_blob(cache, "b", mtime=2)
    assert cache.clear() == 2
    assert cache.entries() == []
    assert cache.total_bytes() == 0


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def test_resolve_cache_dir_precedence(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit"
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
    assert resolve_cache_dir(explicit) == explicit
    assert resolve_cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv(ENV_CACHE_DIR)
    assert resolve_cache_dir(None) == (
        resolve_cache_dir(None).home() / ".cache" / "repro-artifacts"
    )


def test_configure_cache_installs_and_restores(tmp_path):
    previous = active_cache()
    cache = ArtifactCache(tmp_path)
    try:
        assert configure_cache(cache) is previous
        assert active_cache() is cache
    finally:
        configure_cache(previous)
    assert active_cache() is previous
