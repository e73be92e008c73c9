"""Emulator memory: flat segments with split instruction/data views.

Modern processors keep separate instruction and data caches.  Wurster et
al. exploited this to defeat checksumming tamper-proofing: a kernel patch
lets an attacker modify the *instruction* view of a page while loads keep
seeing the pristine *data* view — so checksums pass while the CPU runs
modified code.

:class:`Memory` models exactly that: normal reads/writes go to the
unified store; :meth:`patch_code_view` installs bytes that are visible
only to :meth:`fetch` (instruction fetch).  The Wurster attack
(:func:`repro.attacks.run_tampered` with ``code_view=True``) is
implemented on top of this hook, letting us demonstrate that
checksumming baselines are blind to it while Parallax is not (Parallax
chains *execute* the protected bytes, so they see the instruction
view).

Storage model
-------------

Every mapping is a **flat segment**: one contiguous ``bytearray``
spanning a page-aligned range, registered in a page -> segment table.
:meth:`Memory.map` merges the new range into every segment whose pages
it overlaps or abuts, so each run of consecutive mapped pages is exactly
one segment.  An access is therefore either inside one segment, served
by a slice or an aligned ``struct`` call on its buffer, or it touches an
unmapped byte and raises :class:`BadMemoryAccess` without changing
anything.  Instructions never straddle two segments for the same reason.

Page versions
-------------

Per-page write counters key the decode and superblock caches.  A
version only has to change after something has stamped it, so stores
bump a segment's page versions (and ``write_epoch``) only once the
segment *holds code*: the decode cache marks it (:meth:`claim_code`)
when it first caches code from it, and every superblock is decoded
through that cache.  Stores to pure data (``.data``, ``.bss``, the
stack) leave ``write_epoch`` alone, so blocks stay valid on the
one-compare epoch tier.  ``map`` and the code-view hooks always bump.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from .errors import BadMemoryAccess

PAGE_SIZE = 4096

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class FlatSegment:
    """One contiguous page-aligned mapping backed by a single buffer."""

    __slots__ = ("base", "data", "holds_code", "limit")

    def __init__(self, base: int, data: bytearray):
        self.base = base
        self.data = data
        #: set by :meth:`Memory.claim_code` once code from this segment
        #: is cached; stores bump page versions only while it is set.
        self.holds_code = False
        #: largest offset at which a dword access stays in-bounds; the
        #: block engine's inline fast paths bounds-check against this.
        self.limit = len(data) - 4

    def __repr__(self) -> str:
        return f"<FlatSegment {self.base:#x}+{len(self.data):#x}>"


class Memory:
    """Sparse memory made of flat segments."""

    def __init__(self):
        #: instruction-view overlay: vaddr -> byte (only consulted by fetch)
        self._code_overlay: Dict[int, int] = {}
        #: per-page write counters; lets the emulator's decode cache
        #: detect self-modifying (or tampered) code cheaply.
        self._versions: Dict[int, int] = {}
        #: page number -> owning flat segment.
        self._seg_by_page: Dict[int, FlatSegment] = {}
        #: bumped alongside any page-version bump; lets the block engine
        #: prove "nothing versioned has changed since this block was
        #: stamped" with a single integer compare.
        self.write_epoch = 0

    def page_version(self, vaddr: int) -> int:
        """Monotonic counter bumped whenever the page of ``vaddr`` changes."""
        return self._versions.get(vaddr >> 12, 0)

    def claim_code(self, vaddr: int) -> bool:
        """Mark ``vaddr``'s segment as code-bearing before caching code.

        From then on, stores to the segment bump its page versions.
        Returns False if ``vaddr`` is unmapped (there is nothing to mark).
        """
        seg = self._seg_by_page.get(vaddr >> 12)
        if seg is None:
            return False
        seg.holds_code = True
        return True

    def _bump(self, vaddr: int, length: int = 1) -> None:
        self.write_epoch += 1
        versions = self._versions
        for number in range(vaddr >> 12, ((vaddr + length - 1) >> 12) + 1):
            versions[number] = versions.get(number, 0) + 1

    def _unmapped(self, vaddr: int, segment: Optional[FlatSegment]):
        """The fault for an access at ``vaddr`` that leaves ``segment``
        (``None``: ``vaddr`` itself is unmapped), naming the first
        unmapped byte it touches."""
        if segment is not None:
            vaddr = segment.base + len(segment.data)
        return BadMemoryAccess(f"unmapped address {vaddr:#x}")

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map(self, vaddr: int, data: bytes) -> None:
        """Map ``data`` at ``vaddr``, merging with neighbouring segments."""
        if not data:
            return
        first = vaddr >> 12
        last = (vaddr + len(data) - 1) >> 12
        segs = self._seg_by_page
        merged = []
        for number in range(first - 1, last + 2):
            seg = segs.get(number)
            if seg is not None and seg not in merged:
                merged.append(seg)
                first = min(first, seg.base >> 12)
                last = max(last, ((seg.base + len(seg.data)) >> 12) - 1)
        segment = FlatSegment(first << 12, bytearray((last - first + 1) << 12))
        for seg in merged:
            offset = seg.base - segment.base
            segment.data[offset : offset + len(seg.data)] = seg.data
            segment.holds_code |= seg.holds_code
        offset = vaddr - segment.base
        segment.data[offset : offset + len(data)] = data
        for number in range(first, last + 1):
            segs[number] = segment
        self._bump(vaddr, len(data))

    def is_mapped(self, vaddr: int) -> bool:
        return (vaddr >> 12) in self._seg_by_page

    # ------------------------------------------------------------------
    # Data view (loads and stores)
    # ------------------------------------------------------------------

    def read(self, vaddr: int, length: int) -> bytes:
        """Data-view read. Never sees the instruction overlay."""
        if not length:
            return b""
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + length <= len(segment.data):
                return bytes(segment.data[offset : offset + length])
        raise self._unmapped(vaddr, segment)

    def write(self, vaddr: int, payload: bytes) -> None:
        """Data-view write (also updates what fetch sees, unless an
        instruction-overlay byte shadows it — as on real hardware until
        the i-cache line is flushed)."""
        length = len(payload)
        if not length:
            return
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + length <= len(segment.data):
                segment.data[offset : offset + length] = payload
                if segment.holds_code:
                    self._bump(vaddr, length)
                return
        raise self._unmapped(vaddr, segment)

    def read_u8(self, vaddr: int) -> int:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            return segment.data[vaddr - segment.base]
        raise self._unmapped(vaddr, None)

    def write_u8(self, vaddr: int, value: int) -> None:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is None:
            raise self._unmapped(vaddr, None)
        segment.data[vaddr - segment.base] = value & 0xFF
        if segment.holds_code:
            self.write_epoch += 1
            number = vaddr >> 12
            self._versions[number] = self._versions.get(number, 0) + 1

    def read_u16(self, vaddr: int) -> int:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + 2 <= len(segment.data):
                return _U16.unpack_from(segment.data, offset)[0]
        raise self._unmapped(vaddr, segment)

    def read_u32(self, vaddr: int) -> int:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset <= segment.limit:
                return _U32.unpack_from(segment.data, offset)[0]
        raise self._unmapped(vaddr, segment)

    def write_u16(self, vaddr: int, value: int) -> None:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + 2 <= len(segment.data):
                _U16.pack_into(segment.data, offset, value & 0xFFFF)
                if segment.holds_code:
                    self._bump(vaddr, 2)
                return
        raise self._unmapped(vaddr, segment)

    def write_u32(self, vaddr: int, value: int) -> None:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset <= segment.limit:
                _U32.pack_into(segment.data, offset, value & 0xFFFFFFFF)
                if segment.holds_code:
                    self._bump(vaddr, 4)
                return
        raise self._unmapped(vaddr, segment)

    # ------------------------------------------------------------------
    # Instruction view (fetch)
    # ------------------------------------------------------------------

    def _overlay(self, vaddr: int, data: bytearray) -> bytes:
        """``data`` read at ``vaddr``, with instruction-overlay bytes
        shadowing the unified store."""
        overlay = self._code_overlay
        if overlay:
            for i in range(len(data)):
                byte = overlay.get(vaddr + i)
                if byte is not None:
                    data[i] = byte
        return bytes(data)

    def fetch(self, vaddr: int, length: int) -> bytes:
        """Instruction-view read: overlay bytes shadow the unified store."""
        return self._overlay(vaddr, bytearray(self.read(vaddr, length)))

    def fetch_window(self, vaddr: int, length: int = 16) -> bytes:
        """Fetch up to ``length`` bytes for decoding, clamped to the end
        of ``vaddr``'s segment (empty if ``vaddr`` is unmapped)."""
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is None:
            return b""
        offset = vaddr - segment.base
        return self._overlay(vaddr, segment.data[offset : offset + length])

    # ------------------------------------------------------------------
    # Wurster-attack hook
    # ------------------------------------------------------------------

    def patch_code_view(self, vaddr: int, payload: bytes) -> None:
        """Modify the instruction view only (the Wurster et al. primitive).

        Data reads of the same addresses keep returning the pristine
        bytes, so checksumming code computes correct checksums over
        tampered code.  The write-counter bump invalidates any decoded
        or block-compiled code spanning these addresses, so both engines
        re-fetch through the overlay.
        """
        for i, byte in enumerate(payload):
            if not self.is_mapped(vaddr + i):
                raise BadMemoryAccess(f"unmapped address {vaddr + i:#x}")
            self._code_overlay[vaddr + i] = byte
        if payload:
            self._bump(vaddr, len(payload))

    def clear_code_view(self, vaddr: Optional[int] = None, length: int = 0) -> None:
        """Drop overlay bytes (all of them, or a range)."""
        if vaddr is None:
            addrs = list(self._code_overlay)
            self._code_overlay.clear()
            for addr in addrs:
                self._bump(addr)
            return
        for addr in range(vaddr, vaddr + length):
            self._code_overlay.pop(addr, None)
        if length:
            self._bump(vaddr, length)

    @property
    def code_view_dirty(self) -> bool:
        """True while any instruction-view overlay byte is installed."""
        return bool(self._code_overlay)
