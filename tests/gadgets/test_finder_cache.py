"""Finder cache correctness: version invalidation and replay.

* A :data:`FINDER_VERSION` bump must orphan every entry written by an
  older finder — a stale gadget list can never be replayed into a new
  algorithm's pipeline.
* A warm per-section scan replays the cold one exactly.
"""

from repro.binary import BinaryImage, Perm, Section
from repro.cache import cache_session, content_key
from repro.gadgets import (
    FINDER_VERSION,
    find_gadgets,
    find_gadgets_in_bytes,
    find_gadgets_in_bytes_cached,
    reference_find_gadgets,
)
from repro.x86 import Assembler, EAX, EBX, ECX


def _fingerprint(gadgets):
    return [(g.address, g.end, g.kind.key()) for g in gadgets]


def _multi_section_image():
    image = BinaryImage("multi")
    a = Assembler()
    a.pop(EAX); a.ret(); a.nop(); a.mov(EBX, EAX); a.ret()
    b = Assembler()
    b.pop(EBX); b.ret(); b.pop(ECX); b.nop(); b.ret()
    c = Assembler()
    c.mov(ECX, EBX); c.ret(); c.nop(); c.nop(); c.ret()
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    image.add_section(Section(".text2", 0x2000, b.assemble(), Perm.RX))
    image.add_section(Section(".text3", 0x3000, c.assemble(), Perm.RX))
    image.add_section(Section(".data", 0x4000, b"\xc3" * 16, Perm.R))
    return image


def test_finder_version_is_bumped_for_the_memoized_scanner():
    # v1 was the exhaustive per-offset re-decode; the memoized scanner
    # must carry its own stamp so v1 entries die.
    assert FINDER_VERSION == 2


def test_version_bump_invalidates_prior_entries(tmp_path):
    a = Assembler()
    a.pop(EAX); a.ret()
    data = a.assemble()
    old_key = content_key("find_gadgets", FINDER_VERSION - 1, data, 0, 6, True)
    new_key = content_key("find_gadgets", FINDER_VERSION, data, 0, 6, True)
    assert old_key != new_key

    with cache_session(cache_dir=str(tmp_path)) as manager:
        cache = manager.get("gadgets")
        # Poison the previous version's slot with garbage that would be
        # catastrophic if replayed.
        cache.put(old_key, ["stale-garbage-from-v%d" % (FINDER_VERSION - 1)])
        result = find_gadgets_in_bytes_cached(data, base=0)
        assert _fingerprint(result) == _fingerprint(find_gadgets_in_bytes(data))
        assert result != ["stale-garbage-from-v%d" % (FINDER_VERSION - 1)]
        # The stale entry is orphaned, not overwritten: both files exist,
        # under different keys.
        hit, stale = cache.get(old_key)
        assert hit and stale == ["stale-garbage-from-v%d" % (FINDER_VERSION - 1)]
        hit, fresh = cache.get(new_key)
        assert hit and _fingerprint(fresh) == _fingerprint(result)


def test_cached_scan_replays_identically(tmp_path):
    image = _multi_section_image()
    with cache_session(cache_dir=str(tmp_path)):
        cold = find_gadgets(image)
        warm = find_gadgets(image)
    assert _fingerprint(cold) == _fingerprint(warm)
    assert _fingerprint(cold) == _fingerprint(reference_find_gadgets(image))
