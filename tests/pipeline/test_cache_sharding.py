"""Sharded disk tier: key-space sharding, the on-disk shard layout, and
the cross-process same-key write race the serving layer depends on."""

import multiprocessing
import os
import pickle
import random

from repro.cache import (
    DEFAULT_SHARDS,
    DiskTier,
    content_key,
    shard_index,
)


def keys(n, salt=""):
    return [content_key("shardtest", salt, i) for i in range(n)]


# -- shard assignment ---------------------------------------------------


def test_shard_index_is_deterministic_and_in_range():
    for key in keys(200):
        first = shard_index(key, 16)
        assert 0 <= first < 16
        assert shard_index(key, 16) == first


def test_shard_index_single_shard_is_zero():
    assert all(shard_index(key, 1) == 0 for key in keys(20))


def test_shard_index_handles_non_hex_keys():
    assert 0 <= shard_index("not-a-digest", 16) < 16
    assert shard_index("not-a-digest", 16) == shard_index("not-a-digest", 16)


def test_shard_index_spreads_keys():
    counts = [0] * 16
    for key in keys(1600):
        counts[shard_index(key, 16)] += 1
    # SHA-256 keys spread essentially uniformly; no shard should be
    # empty or grossly overloaded at 100x expected-per-shard samples.
    assert all(count > 0 for count in counts)
    assert max(counts) < 3 * (1600 // 16)


# -- sharded disk layout ------------------------------------------------


def test_disk_tier_writes_into_shard_directories(tmp_path):
    assert DEFAULT_SHARDS == 16  # part of the on-disk layout
    disk = DiskTier(str(tmp_path))
    for key in keys(24):
        disk.put_blob("unit", key, pickle.dumps(key))
    for key in keys(24):
        expected = os.path.join(
            str(tmp_path), "unit", f"shard-{shard_index(key, DEFAULT_SHARDS):02x}",
            key + ".pkl",
        )
        assert os.path.exists(expected)
        assert disk.get_blob("unit", key) == pickle.dumps(key)
    shard_dirs = [
        d for d in os.listdir(tmp_path / "unit") if d.startswith("shard-")
    ]
    assert len(shard_dirs) > 1  # 24 keys actually spread


def test_flat_layout_entry_is_a_miss_and_left_untouched(tmp_path):
    # The pre-shard layout (<ns>/<key[:2]>/<key>.pkl) is not read: such
    # a file is neither served nor moved nor deleted.
    root = str(tmp_path)
    key = content_key("flat", 1)
    flat = os.path.join(root, "unit", key[:2], key + ".pkl")
    os.makedirs(os.path.dirname(flat))
    with open(flat, "wb") as fh:
        fh.write(pickle.dumps("old"))
    disk = DiskTier(root)
    assert disk.get_blob("unit", key) is None
    assert not os.path.exists(disk._path("unit", key))
    with open(flat, "rb") as fh:
        assert fh.read() == pickle.dumps("old")


def test_entry_count_counts_sharded_entries(tmp_path):
    disk = DiskTier(str(tmp_path))
    for key in keys(5, salt="new"):
        disk.put_blob("unit", key, b"x")
    assert disk.entry_count("unit") == 5


# -- cross-process same-key write race (satellite stress test) ---------


def _race_writer(args):
    root, namespace, key, worker, rounds = args
    disk = DiskTier(root)
    rng = random.Random(worker)
    for round_no in range(rounds):
        payload = {"worker": worker, "round": round_no}
        disk.put_blob(namespace, key, pickle.dumps(payload))
        if rng.random() < 0.5:
            blob = disk.get_blob(namespace, key)
            # A concurrent reader must never see a torn entry.
            assert blob is not None
            pickle.loads(blob)
    return worker


def test_cross_process_same_key_write_race(tmp_path):
    """N processes hammer ONE key with writes + reads.  Atomic-rename
    semantics must leave exactly one valid entry and never expose a
    torn blob to any reader at any point."""
    root = str(tmp_path)
    key = content_key("contended")
    workers, rounds = 4, 50
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        done = pool.map(
            _race_writer,
            [(root, "race", key, w, rounds) for w in range(workers)],
        )
    assert sorted(done) == list(range(workers))

    disk = DiskTier(root)
    shard_dir = os.path.dirname(disk._path("race", key))
    entries = [f for f in os.listdir(shard_dir) if f.endswith(".pkl")]
    leftovers = [f for f in os.listdir(shard_dir) if f.endswith(".tmp")]
    assert entries == [key + ".pkl"]  # exactly one entry for the key
    assert leftovers == []  # every temp file was renamed or unlinked
    final = pickle.loads(disk.get_blob("race", key))
    assert final["worker"] in range(workers)
    assert final["round"] == rounds - 1  # someone's last write won


def test_cross_process_distinct_keys_all_land(tmp_path):
    """Different keys from different processes land in their shards
    without interfering."""
    root = str(tmp_path)
    per_worker = 12
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(3) as pool:
        pool.map(
            _distinct_writer,
            [(root, "spread", w, per_worker) for w in range(3)],
        )
    disk = DiskTier(root)
    assert disk.entry_count("spread") == 3 * per_worker
    for worker in range(3):
        for i in range(per_worker):
            key = content_key("spread", worker, i)
            assert pickle.loads(disk.get_blob("spread", key)) == (worker, i)


def _distinct_writer(args):
    root, namespace, worker, count = args
    disk = DiskTier(root)
    for i in range(count):
        key = content_key(namespace, worker, i)
        disk.put_blob(namespace, key, pickle.dumps((worker, i)))
