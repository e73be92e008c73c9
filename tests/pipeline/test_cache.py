"""The content-addressed cache engine: keys, tiers, counters."""

import errno
import os
import pickle

import pytest

from repro import telemetry
from repro.cache import (
    ContentCache,
    DiskTier,
    LRUTier,
    cache_manager,
    cache_session,
    cached,
    content_key,
    get_cache,
)
from repro.core import ProtectConfig


# ----------------------------------------------------------------------
# content_key: canonical framing
# ----------------------------------------------------------------------


def test_content_key_is_deterministic():
    assert content_key(b"abc", 1, "x") == content_key(b"abc", 1, "x")


def test_content_key_concatenation_cannot_alias():
    assert content_key(b"ab", b"c") != content_key(b"a", b"bc")
    assert content_key("ab", "c") != content_key("a", "bc")


def test_content_key_types_cannot_alias():
    parts = [b"1", "1", 1, 1.0, True, None]
    keys = [content_key(p) for p in parts]
    assert len(set(keys)) == len(keys)


def test_content_key_nesting_cannot_alias():
    assert content_key(1, 2, 3) != content_key((1, 2), 3)
    assert content_key((1, 2), 3) != content_key(1, (2, 3))


def test_content_key_bool_is_not_int():
    # bool is an int subclass; the framing must still distinguish them
    assert content_key(True) != content_key(1)
    assert content_key(False) != content_key(0)


def test_content_key_rejects_unframeable_types():
    with pytest.raises(TypeError):
        content_key({"a": 1})


def test_content_key_accepts_memoryview_and_bytearray():
    assert (
        content_key(b"xyz")
        == content_key(bytearray(b"xyz"))
        == content_key(memoryview(b"xyz"))
    )


# ----------------------------------------------------------------------
# content_key: sensitivity to real pipeline inputs
# ----------------------------------------------------------------------


def test_one_byte_image_change_changes_fingerprint(small_wget):
    image = small_wget.image
    mutated = image.clone()
    mutated.text.data[0] ^= 0xFF
    assert image.fingerprint() != mutated.fingerprint()
    assert content_key("protect", image.fingerprint()) != content_key(
        "protect", mutated.fingerprint()
    )


def test_image_fingerprint_ignores_metadata(small_wget):
    image = small_wget.image.clone()
    before = image.fingerprint()
    image.metadata["scratch"] = "noise"
    assert image.fingerprint() == before


def test_config_change_changes_cache_key():
    base = ProtectConfig(seed=1)
    keys = {
        content_key(cfg.cache_key())
        for cfg in (
            base,
            ProtectConfig(seed=2),
            ProtectConfig(seed=1, strategy="rc4"),
            ProtectConfig(seed=1, guard_chains=True),
            ProtectConfig(seed=1, verification_functions=["digest_wget"]),
        )
    }
    assert len(keys) == 5
    assert content_key(base.cache_key()) == content_key(
        ProtectConfig(seed=1).cache_key()
    )


# ----------------------------------------------------------------------
# LRU tier
# ----------------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    tier = LRUTier(max_entries=2)
    tier.put("a", 1)
    tier.put("b", 2)
    tier.put("c", 3)  # evicts a
    assert "a" not in tier
    tier.get("b")  # refresh b
    tier.put("d", 4)  # evicts c, not b
    assert "c" not in tier
    assert "b" in tier and "d" in tier


def test_lru_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LRUTier(max_entries=0)


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------


def test_disk_tier_roundtrip_across_managers(tmp_path):
    key = content_key("roundtrip")
    with cache_session(cache_dir=str(tmp_path)) as manager:
        manager.get("unit").put(key, {"answer": 42})
        assert manager.disk.entry_count("unit") == 1
    # a fresh manager on the same directory sees the entry (new memory tier)
    with cache_session(cache_dir=str(tmp_path)) as manager:
        hit, value = manager.get("unit").get(key)
    assert hit and value == {"answer": 42}


def test_disk_tier_treats_corrupt_entries_as_misses(tmp_path):
    disk = DiskTier(str(tmp_path))
    key = content_key("corrupt")
    disk.put_blob("unit", key, pickle.dumps("fine"))
    path = disk._path("unit", key)
    with open(path, "wb") as fh:
        fh.write(b"\x80garbage-not-a-pickle")
    cache = ContentCache("unit", disk=disk)
    hit, value = cache.get(key)
    assert not hit and value is None
    # and the entry can be overwritten afterwards
    cache.put(key, "recovered")
    with cache_session(cache_dir=str(tmp_path)) as manager:
        hit, value = manager.get("unit").get(key)
    assert hit and value == "recovered"


def test_disk_writes_are_atomic_no_tmp_residue(tmp_path):
    disk = DiskTier(str(tmp_path))
    for i in range(8):
        disk.put_blob("unit", content_key(i), pickle.dumps(i))
    leftovers = [
        name
        for _dir, _sub, files in os.walk(str(tmp_path))
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []
    assert disk.entry_count("unit") == 8


# ----------------------------------------------------------------------
# ContentCache semantics
# ----------------------------------------------------------------------


def test_fresh_namespace_hits_return_fresh_objects():
    cache = ContentCache("protect")  # fresh in POLICIES
    value = {"nested": [1, 2, 3]}
    cache.put("k", value)
    _, first = cache.get("k")
    _, second = cache.get("k")
    assert first == value == second
    assert first is not value and first is not second
    first["nested"].append(4)  # mutating a hit must not poison the cache
    _, third = cache.get("k")
    assert third == value


def test_plain_cache_hits_return_same_object():
    cache = ContentCache("unit")
    value = object()
    cache.put("k", value)
    _, got = cache.get("k")
    assert got is value


def test_cached_computes_once():
    calls = []

    def compute():
        calls.append(1)
        return "value"

    with cache_session():
        assert cached("unit", ("k",), compute) == ("value", False)
        assert cached("unit", ("k",), compute) == ("value", True)
    assert len(calls) == 1


def test_cached_without_caching_derives_no_key():
    def inputs():
        raise AssertionError("key parts computed with caching off")

    with cache_session(enabled=False):
        assert cached("unit", inputs, lambda: "value") == ("value", False)


def test_cached_none_is_a_hit():
    cache = ContentCache("unit")
    cache.put("k", None)
    hit, value = cache.get("k")
    assert hit and value is None


# ----------------------------------------------------------------------
# Manager configuration
# ----------------------------------------------------------------------


def test_disabled_caching_returns_no_cache():
    with cache_session(enabled=False):
        assert get_cache("protect") is None


def test_decode_namespace_is_memory_only(tmp_path):
    with cache_session(cache_dir=str(tmp_path)) as manager:
        decode = manager.get("decode")
        decode.put(content_key("insns"), ["fake"])
        assert manager.disk.entry_count("decode") == 0
        other = manager.get("gadgets")
        other.put(content_key("insns"), ["fake"])
        assert manager.disk.entry_count("gadgets") == 1


def test_cache_session_restores_previous_manager(tmp_path):
    before = cache_manager()
    with cache_session(cache_dir=str(tmp_path)):
        assert cache_manager() is not before
    assert cache_manager() is before


# ----------------------------------------------------------------------
# Metrics integration
# ----------------------------------------------------------------------


def test_cache_counters_track_hits_misses_stores():
    with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
        with cache_session():
            cache = get_cache("unit")
            cache.get("missing")
            cache.put("k", 1)
            cache.get("k")
            cache.get("k")
        samples = metrics.to_dict()
    assert samples["cache.unit.misses"]["value"] == 1
    assert samples["cache.unit.stores"]["value"] == 1
    assert samples["cache.unit.hits"]["value"] == 2
    assert samples["cache.unit.memory_hits"]["value"] == 2


def test_failed_disk_put_is_counted_and_served_from_memory(
    tmp_path, monkeypatch
):
    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    with telemetry.telemetry_session(metrics=True) as (metrics, _tracer):
        cache = ContentCache("unit", disk=DiskTier(str(tmp_path)))
        monkeypatch.setattr(os, "replace", disk_full)
        cache.put("k", {"answer": 42})
        hit, value = cache.get("k")
        samples = metrics.to_dict()
    assert samples["cache.unit.disk_errors"]["value"] == 1
    assert hit and value == {"answer": 42}
    assert samples["cache.unit.memory_hits"]["value"] == 1
    assert cache.disk.entry_count("unit") == 0
