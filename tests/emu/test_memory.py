"""Paged memory and the instruction/data split view."""

import pytest

from repro.emu import BadMemoryAccess, Memory


def test_map_read_write_roundtrip():
    mem = Memory()
    mem.map(0x1000, b"hello world")
    assert mem.read(0x1000, 11) == b"hello world"
    mem.write(0x1002, b"XY")
    assert mem.read(0x1000, 5) == b"heXYo"


def test_cross_page_access():
    mem = Memory()
    mem.map(0xFFC, b"\x01\x02\x03\x04\x05\x06\x07\x08")
    assert mem.read_u32(0xFFE) == 0x06050403
    mem.write_u32(0xFFE, 0xAABBCCDD)
    assert mem.read(0xFFC, 8) == b"\x01\x02\xdd\xcc\xbb\xaa\x07\x08"


def test_unmapped_access_raises():
    mem = Memory()
    with pytest.raises(BadMemoryAccess):
        mem.read(0x5000, 1)
    with pytest.raises(BadMemoryAccess):
        mem.write(0x5000, b"\x00")


def test_icache_split_view():
    """The Wurster primitive: fetch sees the patch, reads do not."""
    mem = Memory()
    mem.map(0x1000, b"\xc3\xc3\xc3\xc3")
    mem.patch_code_view(0x1001, b"\x90")
    assert mem.read(0x1000, 4) == b"\xc3\xc3\xc3\xc3"      # data view pristine
    assert mem.fetch(0x1000, 4) == b"\xc3\x90\xc3\xc3"     # fetch tampered
    assert mem.code_view_dirty
    mem.clear_code_view()
    assert mem.fetch(0x1000, 4) == b"\xc3\xc3\xc3\xc3"
    assert not mem.code_view_dirty


def test_page_versions_bump_on_write():
    # A store bumps its page version only once code has been cached
    # from the segment: until something stamps a version, it need not
    # change.
    mem = Memory()
    mem.map(0x1000, b"\x00" * 8)
    v0 = mem.page_version(0x1000)
    mem.write_u8(0x1004, 7)
    assert mem.page_version(0x1000) == v0
    assert mem.claim_code(0x1000)
    mem.write_u8(0x1004, 7)
    assert mem.page_version(0x1000) > v0
    v1 = mem.page_version(0x1000)
    mem.patch_code_view(0x1000, b"\x90")
    assert mem.page_version(0x1000) > v1


def test_fetch_window_clamps_at_unmapped():
    mem = Memory()
    mem.map_zero(0x1000, 0x1000)
    window = mem.fetch_window(0x1FFA, 16)
    assert len(window) == 6


# ----------------------------------------------------------------------
# Flat segments (the block engine's fast paths)
# ----------------------------------------------------------------------

def test_fresh_map_installs_flat_segment():
    mem = Memory()
    mem.map(0x1000, bytes(range(64)))
    assert mem._seg_by_page.get(1) is not None
    before = mem.fast_loads
    assert mem.read_u32(0x1004) == 0x07060504
    assert mem.fast_loads == before + 1
    before = mem.fast_stores
    mem.write_u32(0x1008, 0xAABBCCDD)
    assert mem.fast_stores == before + 1
    assert mem.read(0x1008, 4) == b"\xdd\xcc\xbb\xaa"


def test_segment_and_paged_views_stay_coherent():
    """Segment word accessors and byte-wise paged accessors must see the
    same backing store (the memoryview write-through installation)."""
    mem = Memory()
    mem.map(0x2000, bytes(16))
    mem.write_u32(0x2004, 0x11223344)      # segment fast path
    assert mem.read_u8(0x2004) == 0x44     # byte path, same bytes
    mem.write_u8(0x2007, 0x99)             # byte path
    assert mem.read_u32(0x2004) == 0x99223344


def test_map_overlapping_existing_pages_bulk_copies():
    mem = Memory()
    mem.map(0x1000, b"\xAA" * 0x1800)       # spans pages 1 and 2
    mem.map(0x1800, b"\xBB" * 0x1000)       # overlaps both, page-straddling
    assert mem.read(0x17FC, 8) == b"\xAA" * 4 + b"\xBB" * 4
    assert mem.read(0x27FC, 4) == b"\xBB" * 4


def test_map_zero_versioned_flag():
    mem = Memory()
    mem.map_zero(0x10000, 0x1000)                    # stack-style region
    mem.map_zero(0x20000, 0x1000, versioned=True)    # heap-style region
    assert not mem.page_is_versioned(0x10000)
    assert mem.page_is_versioned(0x20000)
    # unmapped pages count as versioned (nothing to go stale)
    assert mem.page_is_versioned(0x90000)


def test_write_epoch_skips_unversioned_pages():
    mem = Memory()
    mem.map(0x1000, bytes(16))
    mem.map_zero(0x10000, 0x1000)
    epoch = mem.write_epoch
    assert not mem.claim_code(0x10000)  # code is never cached from stacks
    mem.write_u32(0x10000, 1)       # stack store: no epoch bump
    mem.write_u8(0x10004, 2)
    assert mem.write_epoch == epoch
    assert mem.page_version(0x10000) == 0
    mem.write_u8(0x1000, 3)         # no code cached from it yet: no bump
    mem.write_u16(0x1002, 3)
    mem.write_u32(0x1004, 3)
    mem.write(0x1008, b"\x03")
    assert mem.write_epoch == epoch
    assert mem.page_version(0x1000) == 1  # the map's bump alone
    assert mem.claim_code(0x1000)
    mem.write_u8(0x1000, 3)         # code-bearing segment: epoch moves
    assert mem.write_epoch > epoch
    epoch = mem.write_epoch
    mem.write_u32(0x1004, 4)
    assert mem.write_epoch > epoch


def test_unaligned_segment_access_crossing_pages():
    mem = Memory()
    mem.map(0x1000, bytes(0x2000))  # one segment spanning two pages
    mem.write_u32(0x1FFE, 0xDEADBEEF)
    assert mem.read_u32(0x1FFE) == 0xDEADBEEF
    # both spanned pages must have their versions bumped
    assert mem.page_version(0x1000) > 0
    assert mem.page_version(0x2000) > 0
