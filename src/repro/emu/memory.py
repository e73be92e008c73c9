"""Paged emulator memory with split instruction/data views.

Modern processors keep separate instruction and data caches.  Wurster et
al. exploited this to defeat checksumming tamper-proofing: a kernel patch
lets an attacker modify the *instruction* view of a page while loads keep
seeing the pristine *data* view — so checksums pass while the CPU runs
modified code.

:class:`Memory` models exactly that: normal reads/writes go to the
unified store; :meth:`patch_code_view` installs bytes that are visible
only to :meth:`fetch` (instruction fetch).  The Wurster attack in
:mod:`repro.attacks.wurster` is implemented on top of this hook, letting
us demonstrate that checksumming baselines are blind to it while Parallax
is not (Parallax chains *execute* the protected bytes, so they see the
instruction view).

Storage model
-------------

Two tiers share one backing store:

* **Flat segments** — a mapping whose pages are all fresh is allocated
  as one contiguous ``bytearray`` spanning the page-aligned range, and
  aligned ``struct`` fast paths serve loads/stores against it directly
  (``fast_loads``/``fast_stores`` counters).  The segment's pages are
  installed into the page table as ``memoryview`` windows over the same
  buffer, so the paged path and the flat path are coherent by
  construction.
* **Paged fallback** — overlapping mappings, span edges and anything
  created by ``_page_for(create=True)`` live as standalone 4 KiB
  ``bytearray`` pages and take the original per-page path
  (``slow_loads``/``slow_stores``).

Stacks (``map_zero``) are flat segments marked *unversioned*: stores to
them skip the per-page write-counter bump that keys the decode and
superblock caches.  Code is never cached from unversioned pages (see
:meth:`page_is_versioned`), so cache coherence is unaffected — this
just removes two dict operations from every ``push``.

Versioned segments bump on a store only once they *hold code*: the
decode cache marks a segment (:meth:`claim_code`) when it first caches
code from it — every superblock is decoded through it — and a version
only has to change after something has stamped it.  Stores to a pure data segment
(``.data``, ``.bss``) therefore leave ``write_epoch`` alone, so blocks
stay valid on the one-compare epoch tier.  ``map``, the code-view hooks
and the paged fallback always bump.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from .errors import BadMemoryAccess

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class FlatSegment:
    """One contiguous page-aligned mapping backed by a single buffer."""

    __slots__ = ("base", "data", "versioned", "holds_code", "limit")

    def __init__(self, base: int, data: bytearray, versioned: bool):
        self.base = base
        self.data = data
        self.versioned = versioned
        #: set by :meth:`Memory.claim_code` once code from this segment
        #: is cached; stores bump page versions only while it is set.
        self.holds_code = False
        #: largest offset at which a dword access stays in-bounds; the
        #: block engine's inline fast paths bounds-check against this.
        self.limit = len(data) - 4

    def __repr__(self) -> str:
        return (
            f"<FlatSegment {self.base:#x}+{len(self.data):#x}"
            f"{'' if self.versioned else ' unversioned'}>"
        )


class Memory:
    """Sparse paged memory with flat-segment fast paths."""

    def __init__(self):
        self._pages: Dict[int, object] = {}  # bytearray or memoryview
        #: instruction-view overlay: vaddr -> byte (only consulted by fetch)
        self._code_overlay: Dict[int, int] = {}
        #: per-page write counters; lets the emulator's decode cache
        #: detect self-modifying (or tampered) code cheaply.
        self._versions: Dict[int, int] = {}
        #: page number -> owning flat segment (fast-path lookup).
        self._seg_by_page: Dict[int, FlatSegment] = {}
        #: bumped alongside any page-version bump; lets the block engine
        #: prove "nothing versioned has changed since this block was
        #: stamped" with a single integer compare.
        self.write_epoch = 0
        # telemetry: scalar accesses served by the flat path vs. the
        # paged path (recorded at run end by the emulator).
        self.fast_loads = 0
        self.slow_loads = 0
        self.fast_stores = 0
        self.slow_stores = 0

    def page_version(self, vaddr: int) -> int:
        """Monotonic counter bumped whenever the page of ``vaddr`` changes."""
        return self._versions.get(vaddr >> 12, 0)

    def page_is_versioned(self, vaddr: int) -> bool:
        """False for pages whose stores skip version bumps (stacks).

        Execution engines must not cache decoded code that lives on an
        unversioned page, because nothing would invalidate it.
        """
        seg = self._seg_by_page.get(vaddr >> 12)
        return seg.versioned if seg is not None else True

    def claim_code(self, vaddr: int) -> bool:
        """Mark ``vaddr``'s segment as code-bearing before caching code.

        From then on, stores to the segment bump its page versions.
        Returns :meth:`page_is_versioned`: ``False`` means the code must
        not be cached (and the segment stays unmarked).
        """
        seg = self._seg_by_page.get(vaddr >> 12)
        if seg is None:
            return True
        if seg.versioned:
            seg.holds_code = True
        return seg.versioned

    def _bump(self, vaddr: int, length: int = 1) -> None:
        self.write_epoch += 1
        first = vaddr >> 12
        last = (vaddr + max(length - 1, 0)) >> 12
        versions = self._versions
        segs = self._seg_by_page
        for number in range(first, last + 1):
            seg = segs.get(number)
            if seg is not None and not seg.versioned:
                continue
            versions[number] = versions.get(number, 0) + 1

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map(self, vaddr: int, data: bytes) -> None:
        """Map ``data`` at ``vaddr``, allocating pages as needed."""
        if not data:
            return
        first = vaddr >> 12
        last = (vaddr + len(data) - 1) >> 12
        pages = self._pages
        if all(number not in pages for number in range(first, last + 1)):
            base = first << 12
            segment = FlatSegment(
                base, bytearray((last - first + 1) << 12), versioned=True
            )
            offset = vaddr - base
            segment.data[offset : offset + len(data)] = data
            self._install_segment(segment)
        else:
            # Overlaps an existing mapping: bulk-copy page-sized slices
            # into whatever backs each page.
            pos = 0
            length = len(data)
            while pos < length:
                addr = vaddr + pos
                page = self._page_for(addr, create=True)
                off = addr & PAGE_MASK
                chunk = min(length - pos, PAGE_SIZE - off)
                page[off : off + chunk] = data[pos : pos + chunk]
                pos += chunk
        self._bump(vaddr, len(data))

    def map_zero(self, vaddr: int, size: int, versioned: bool = False) -> None:
        """Map ``size`` zero bytes at ``vaddr`` (stack/heap-style region).

        The region defaults to *unversioned*: stores skip the write
        counter used for code-cache invalidation, which is safe because
        engines refuse to cache code from unversioned pages.
        """
        if size <= 0:
            return
        first = vaddr >> 12
        last = (vaddr + size - 1) >> 12
        pages = self._pages
        if all(number not in pages for number in range(first, last + 1)):
            segment = FlatSegment(
                first << 12, bytearray((last - first + 1) << 12), versioned
            )
            self._install_segment(segment)
        else:
            for number in range(first, last + 1):
                pages.setdefault(number, bytearray(PAGE_SIZE))

    def _install_segment(self, segment: FlatSegment) -> None:
        view = memoryview(segment.data)
        base_page = segment.base >> 12
        for i in range(len(segment.data) >> 12):
            number = base_page + i
            self._pages[number] = view[i << 12 : (i + 1) << 12]
            self._seg_by_page[number] = segment

    def is_mapped(self, vaddr: int) -> bool:
        return (vaddr >> 12) in self._pages

    def _page_for(self, vaddr: int, create: bool = False):
        number = vaddr >> 12
        page = self._pages.get(number)
        if page is None:
            if not create:
                raise BadMemoryAccess(f"unmapped address {vaddr:#x}")
            page = bytearray(PAGE_SIZE)
            self._pages[number] = page
        return page

    # ------------------------------------------------------------------
    # Data view (loads and stores)
    # ------------------------------------------------------------------

    def read(self, vaddr: int, length: int) -> bytes:
        """Data-view read. Never sees the instruction overlay."""
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + length <= len(segment.data):
                self.fast_loads += 1
                return bytes(segment.data[offset : offset + length])
        self.slow_loads += 1
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = vaddr + pos
            page = self._page_for(addr)
            off = addr & PAGE_MASK
            chunk = min(length - pos, PAGE_SIZE - off)
            out[pos : pos + chunk] = page[off : off + chunk]
            pos += chunk
        return bytes(out)

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
                self.fast_stores += 1
                segment.data[offset : offset + length] = payload
                if segment.holds_code:
                    self._bump(vaddr, length)
                return
        self.slow_stores += 1
        pos = 0
        while pos < length:
            addr = vaddr + pos
            page = self._page_for(addr, create=False)
            off = addr & PAGE_MASK
            chunk = min(length - pos, PAGE_SIZE - off)
            page[off : off + chunk] = payload[pos : pos + chunk]
            pos += chunk
        self._bump(vaddr, length)

    def read_u8(self, vaddr: int) -> int:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            self.fast_loads += 1
            return segment.data[vaddr - segment.base]
        self.slow_loads += 1
        return self._page_for(vaddr)[vaddr & PAGE_MASK]

    def write_u8(self, vaddr: int, value: int) -> None:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            self.fast_stores += 1
            segment.data[vaddr - segment.base] = value & 0xFF
            if segment.holds_code:
                self.write_epoch += 1
                number = vaddr >> 12
                self._versions[number] = self._versions.get(number, 0) + 1
            return
        self.slow_stores += 1
        self._page_for(vaddr)[vaddr & PAGE_MASK] = value & 0xFF
        self._bump(vaddr)

    def read_u16(self, vaddr: int) -> int:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + 2 <= len(segment.data):
                self.fast_loads += 1
                return _U16.unpack_from(segment.data, offset)[0]
        return int.from_bytes(self.read(vaddr, 2), "little")

    def read_u32(self, vaddr: int) -> int:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + 4 <= len(segment.data):
                self.fast_loads += 1
                return _U32.unpack_from(segment.data, offset)[0]
        off = vaddr & PAGE_MASK
        if off <= PAGE_SIZE - 4:  # paged fallback: within one page
            self.slow_loads += 1
            page = self._page_for(vaddr)
            return int.from_bytes(page[off : off + 4], "little")
        return int.from_bytes(self.read(vaddr, 4), "little")

    def write_u16(self, vaddr: int, value: int) -> None:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + 2 <= len(segment.data):
                self.fast_stores += 1
                _U16.pack_into(segment.data, offset, value & 0xFFFF)
                if segment.holds_code:
                    self._bump(vaddr, 2)
                return
        self.write(vaddr, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, vaddr: int, value: int) -> None:
        segment = self._seg_by_page.get(vaddr >> 12)
        if segment is not None:
            offset = vaddr - segment.base
            if offset + 4 <= len(segment.data):
                self.fast_stores += 1
                _U32.pack_into(segment.data, offset, value & 0xFFFFFFFF)
                if segment.holds_code:
                    self._bump(vaddr, 4)
                return
        off = vaddr & PAGE_MASK
        if off <= PAGE_SIZE - 4:  # paged fallback: within one page
            self.slow_stores += 1
            page = self._page_for(vaddr)
            page[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
            self._bump(vaddr)
            return
        self.write(vaddr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # ------------------------------------------------------------------
    # Instruction view (fetch)
    # ------------------------------------------------------------------

    def fetch(self, vaddr: int, length: int) -> bytes:
        """Instruction-view read: overlay bytes shadow the unified store."""
        data = bytearray(self.read(vaddr, length))
        if self._code_overlay:
            for i in range(length):
                byte = self._code_overlay.get(vaddr + i)
                if byte is not None:
                    data[i] = byte
        return bytes(data)

    def fetch_window(self, vaddr: int, length: int = 16) -> bytes:
        """Fetch up to ``length`` bytes for decoding, clamped to mapped pages."""
        if not self._code_overlay:
            segment = self._seg_by_page.get(vaddr >> 12)
            if segment is not None:
                offset = vaddr - segment.base
                end = offset + length
                if end <= len(segment.data):
                    return bytes(segment.data[offset:end])
                if not self.is_mapped(segment.base + len(segment.data)):
                    return bytes(segment.data[offset:])
                # window continues into an adjacent mapping: slow path
        out = bytearray()
        for i in range(length):
            addr = vaddr + i
            if not self.is_mapped(addr):
                break
            out.append(self._page_for(addr)[addr & PAGE_MASK])
        if self._code_overlay:
            for i in range(len(out)):
                byte = self._code_overlay.get(vaddr + i)
                if byte is not None:
                    out[i] = byte
        return bytes(out)

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
