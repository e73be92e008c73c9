"""Disk tier: the ``<root>/<ns>/<key>.pkl`` layout, and the
cross-process same-key write race the serving layer depends on."""

import multiprocessing
import os
import pickle
import random

from repro.cache import DiskTier, content_key


def keys(n, salt=""):
    return [content_key("layouttest", salt, i) for i in range(n)]


# -- disk layout --------------------------------------------------------


def test_disk_tier_layout_is_namespace_then_key(tmp_path):
    disk = DiskTier(str(tmp_path))
    for key in keys(24):
        disk.put_blob("unit", key, pickle.dumps(key))
    for key in keys(24):
        expected = os.path.join(str(tmp_path), "unit", key + ".pkl")
        assert os.path.isfile(expected)
        assert disk._path("unit", key) == expected
        assert disk.get_blob("unit", key) == pickle.dumps(key)
    # Nothing but the entries: no per-key or per-shard subdirectories.
    assert sorted(os.listdir(tmp_path / "unit")) == sorted(
        key + ".pkl" for key in keys(24)
    )


def test_flat_layout_entry_is_a_miss_and_left_untouched(tmp_path):
    # The first disk layout (<ns>/<key[:2]>/<key>.pkl) is not read:
    # such a file is neither served nor moved nor deleted.
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
    entry_dir = os.path.dirname(disk._path("race", key))
    entries = [f for f in os.listdir(entry_dir) if f.endswith(".pkl")]
    leftovers = [f for f in os.listdir(entry_dir) if f.endswith(".tmp")]
    assert entries == [key + ".pkl"]  # exactly one entry for the key
    assert leftovers == []  # every temp file was renamed or unlinked
    final = pickle.loads(disk.get_blob("race", key))
    assert final["worker"] in range(workers)
    assert final["round"] == rounds - 1  # someone's last write won


def test_cross_process_distinct_keys_all_land(tmp_path):
    """Different keys from different processes all land without
    interfering."""
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
