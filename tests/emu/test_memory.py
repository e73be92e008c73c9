"""Flat-segment memory and the instruction/data split view."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.emu import BadMemoryAccess, Emulator, Memory


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
    mem.map(0x1000, bytes(0x1000))
    window = mem.fetch_window(0x1FFA, 16)
    assert len(window) == 6


# ----------------------------------------------------------------------
# Flat segments
# ----------------------------------------------------------------------

def test_fresh_map_installs_flat_segment():
    mem = Memory()
    mem.map(0x1000, bytes(range(64)))
    assert mem._seg_by_page.get(1) is not None
    assert mem.read_u32(0x1004) == 0x07060504
    mem.write_u32(0x1008, 0xAABBCCDD)
    assert mem.read(0x1008, 4) == b"\xdd\xcc\xbb\xaa"


def test_abutting_maps_merge_into_one_segment():
    """Ranges that share or abut pages become one segment, so word
    accessors read across what were separate mappings."""
    mem = Memory()
    mem.map(0x3000, b"\x11" * 16)
    mem.map(0x1FFC, b"\x22" * 4)          # page 1: its own segment so far
    mem.map(0x2800, b"\x33" * 4)          # page 2 abuts both
    segment = mem._seg_by_page[1]
    assert mem._seg_by_page[2] is segment is mem._seg_by_page[3]
    assert mem.read_u32(0x2FFE) == 0x11110000
    mem.write_u32(0x1FFE, 0x44434241)
    assert mem.read(0x1FFC, 8) == b"\x22\x22ABCD\x00\x00"
    assert mem.fetch_window(0x2FFC, 8) == b"\x00" * 4 + b"\x11" * 4


def test_map_overlapping_existing_pages_bulk_copies():
    mem = Memory()
    mem.map(0x1000, b"\xAA" * 0x1800)       # spans pages 1 and 2
    mem.map(0x1800, b"\xBB" * 0x1000)       # overlaps both, page-straddling
    assert mem.read(0x17FC, 8) == b"\xAA" * 4 + b"\xBB" * 4
    assert mem.read(0x27FC, 4) == b"\xBB" * 4


def test_stack_is_a_plain_data_segment():
    """Stack stores leave versions alone until code runs from the stack;
    then they bump like stores to any other code-bearing segment."""
    emu = Emulator()
    mem = emu.memory
    esp = emu.cpu.esp
    epoch = mem.write_epoch
    version = mem.page_version(esp)
    emu.push(1)
    assert (mem.write_epoch, mem.page_version(esp)) == (epoch, version)
    mem.claim_code(esp - 0x1000)   # code cached from a lower stack page
    emu.push(2)
    assert mem.write_epoch == epoch + 1
    assert mem.page_version(esp) == version + 1


def test_write_epoch_skips_data_segments():
    mem = Memory()
    mem.map(0x1000, bytes(16))
    mem.map(0x10000, bytes(16))
    epoch = mem.write_epoch
    mem.write_u8(0x1000, 3)         # no code cached from it yet: no bump
    mem.write_u16(0x1002, 3)
    mem.write_u32(0x1004, 3)
    mem.write(0x1008, b"\x03")
    assert mem.write_epoch == epoch
    assert mem.page_version(0x1000) == 1  # the map's bump alone
    mem.claim_code(0x1000)
    mem.write_u8(0x1000, 3)         # code-bearing segment: epoch moves
    assert mem.write_epoch > epoch
    epoch = mem.write_epoch
    mem.write_u32(0x1004, 4)
    assert mem.write_epoch > epoch
    epoch = mem.write_epoch
    mem.write_u32(0x10000, 5)       # the other segment is still data
    assert mem.write_epoch == epoch


def test_unaligned_segment_access_crossing_pages():
    mem = Memory()
    mem.map(0x1000, bytes(0x2000))  # one segment spanning two pages
    mem.write_u32(0x1FFE, 0xDEADBEEF)
    assert mem.read_u32(0x1FFE) == 0xDEADBEEF
    # both spanned pages must have their versions bumped
    assert mem.page_version(0x1000) > 0
    assert mem.page_version(0x2000) > 0


# ----------------------------------------------------------------------
# Reference model
# ----------------------------------------------------------------------

class ByteModel:
    """``Memory``'s contract over a ``dict[int, int]`` of bytes.

    Mapped pages read as zero until written; a segment is a maximal run
    of consecutive mapped pages.  Stores bump versions only on runs that
    hold code; ``map`` and code-view patches always bump.
    """

    def __init__(self):
        self.bytes = {}
        self.pages = set()
        self.code_pages = set()
        self.overlay = {}
        self.versions = {}
        self.epoch = 0

    def run_of(self, page):
        first = last = page
        while first - 1 in self.pages:
            first -= 1
        while last + 1 in self.pages:
            last += 1
        return set(range(first, last + 1))

    def bump(self, addr, length):
        self.epoch += 1
        for page in range(addr >> 12, ((addr + length - 1) >> 12) + 1):
            self.versions[page] = self.versions.get(page, 0) + 1

    def check(self, addr, length):
        for a in range(addr, addr + length):
            if a >> 12 not in self.pages:
                raise BadMemoryAccess(f"unmapped address {a:#x}")

    def map(self, addr, data):
        self.pages.update(range(addr >> 12, ((addr + len(data) - 1) >> 12) + 1))
        run = self.run_of(addr >> 12)
        if run & self.code_pages:
            self.code_pages |= run
        for i, byte in enumerate(data):
            self.bytes[addr + i] = byte
        self.bump(addr, len(data))

    def read(self, addr, length):
        self.check(addr, length)
        return bytes(self.bytes.get(a, 0) for a in range(addr, addr + length))

    def write(self, addr, data):
        self.check(addr, len(data))
        for i, byte in enumerate(data):
            self.bytes[addr + i] = byte
        if data and addr >> 12 in self.code_pages:
            self.bump(addr, len(data))

    def claim_code(self, addr):
        if addr >> 12 in self.pages:
            self.code_pages |= self.run_of(addr >> 12)

    def fetch_window(self, addr, length):
        out = bytearray()
        for a in range(addr, addr + length):
            if a >> 12 not in self.pages:
                break
            out.append(self.overlay.get(a, self.bytes.get(a, 0)))
        return bytes(out)

    def patch_code_view(self, addr, data):
        for i, byte in enumerate(data):
            self.check(addr + i, 1)
            self.overlay[addr + i] = byte
        self.bump(addr, len(data))


def _pattern(length, seed):
    return bytes((seed + 7 * i) & 0xFF for i in range(length))


def _addresses(model):
    """Anywhere across a 16-page window with an unmapped margin, or
    within a few bytes of the start or end of a mapped run."""
    anywhere = st.integers(0xF000, 0x21000)
    edges = sorted(
        {page << 12 for page in model.pages if page - 1 not in model.pages}
        | {(page + 1) << 12 for page in model.pages if page + 1 not in model.pages}
    )
    if not edges:
        return anywhere
    near_edge = st.builds(
        lambda edge, delta: edge + delta, st.sampled_from(edges), st.integers(-6, 6)
    )
    return st.one_of(anywhere, near_edge, near_edge)


_KINDS = ["map", "read", "read", "read", "write", "write", "claim", "fetch", "patch"]
_width = st.one_of(st.sampled_from([1, 2, 4]), st.integers(0, 24))
_READ = {1: Memory.read_u8, 2: Memory.read_u16, 4: Memory.read_u32}
_WRITE = {1: Memory.write_u8, 2: Memory.write_u16, 4: Memory.write_u32}


def _same(memory_call, model_call):
    """Both calls return the same value, or both raise BadMemoryAccess
    naming the same address."""
    try:
        expected = model_call()
    except BadMemoryAccess as exc:
        with pytest.raises(BadMemoryAccess) as raised:
            memory_call()
        assert str(raised.value) == str(exc)
        return
    assert memory_call() == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memory_matches_byte_model(choices):
    """Random maps (disjoint, abutting, overlapping, page-straddling),
    accesses of every width on both sides of segment edges, code claims
    and code-view patches: contents, faults, page versions and
    ``write_epoch`` all follow the model."""
    mem, model = Memory(), ByteModel()
    word_accessors = choices.draw(st.booleans())
    for _ in range(choices.draw(st.integers(1, 40))):
        kind = choices.draw(st.sampled_from(_KINDS)) if model.pages else "map"
        addr = choices.draw(_addresses(model))
        if kind == "map":
            data = _pattern(choices.draw(st.integers(1, 0x2100)), addr)
            mem.map(addr, data)
            model.map(addr, data)
        elif kind == "read":
            width = choices.draw(_width)
            if word_accessors and width in _READ:
                _same(
                    lambda: _READ[width](mem, addr),
                    lambda: int.from_bytes(model.read(addr, width), "little"),
                )
            else:
                _same(lambda: mem.read(addr, width), lambda: model.read(addr, width))
        elif kind == "write":
            data = _pattern(choices.draw(_width), choices.draw(st.integers(0, 255)))
            if word_accessors and len(data) in _WRITE:
                value = int.from_bytes(data, "little")
                store = lambda: _WRITE[len(data)](mem, addr, value)  # noqa: E731
            else:
                store = lambda: mem.write(addr, data)  # noqa: E731
            _same(store, lambda: model.write(addr, data))
        elif kind == "claim":
            mem.claim_code(addr)
            model.claim_code(addr)
        elif kind == "fetch":
            length = choices.draw(st.integers(0, 16))
            assert mem.fetch_window(addr, length) == model.fetch_window(addr, length)
        else:
            data = _pattern(choices.draw(st.integers(1, 4)), addr + 1)
            _same(
                lambda: mem.patch_code_view(addr, data),
                lambda: model.patch_code_view(addr, data),
            )
            assert mem.fetch_window(addr, 8) == model.fetch_window(addr, 8)
        assert mem.write_epoch == model.epoch
        for page in range(0xE, 0x25):
            assert mem.page_version(page << 12) == model.versions.get(page, 0)
