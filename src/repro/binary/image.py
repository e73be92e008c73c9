"""The binary image container.

A :class:`BinaryImage` is our stand-in for an ELF executable: a set of
sections, a symbol table and an entry point.  Both the Parallax protector
and the attack harness operate on images; the emulator loads them into
its memory.
"""

from __future__ import annotations

import copy
import hashlib
from typing import List, Optional

from .section import Perm, Section
from .symbol import Symbol, SymbolKind, SymbolTable


class BinaryImage:
    """An executable image: sections + symbols + entry point.

    Attributes:
        name: program name (e.g. ``"wget"``).
        sections: list of :class:`Section`, non-overlapping.
        symbols: :class:`SymbolTable`.
        entry: virtual address execution starts at.
        metadata: free-form dict used by the pipeline (e.g. protection
            records, instruction-mix info from the corpus generator).
    """

    def __init__(self, name: str = "a.out"):
        self.name = name
        self.sections: List[Section] = []
        self.symbols = SymbolTable()
        self.entry: int = 0
        self.metadata: dict = {}

    # ------------------------------------------------------------------
    # Section management
    # ------------------------------------------------------------------

    def add_section(self, section: Section) -> Section:
        for existing in self.sections:
            if section.vaddr < existing.end and existing.vaddr < section.vaddr + max(
                section.size, 1
            ):
                raise ValueError(
                    f"section {section.name} overlaps {existing.name}"
                )
        self.sections.append(section)
        self.sections.sort(key=lambda s: s.vaddr)
        return section

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise KeyError(f"no section named {name!r}")

    def has_section(self, name: str) -> bool:
        return any(sec.name == name for sec in self.sections)

    @property
    def text(self) -> Section:
        """The primary executable section."""
        return self.section(".text")

    def section_at(self, vaddr: int) -> Optional[Section]:
        for sec in self.sections:
            if sec.contains(vaddr):
                return sec
        return None

    # ------------------------------------------------------------------
    # Byte access across sections
    # ------------------------------------------------------------------

    def read(self, vaddr: int, length: int) -> bytes:
        sec = self.section_at(vaddr)
        if sec is None or not sec.contains(vaddr, length):
            raise IndexError(f"read of {length} bytes at {vaddr:#x} outside image")
        return sec.read(vaddr, length)

    def write(self, vaddr: int, payload: bytes) -> None:
        sec = self.section_at(vaddr)
        if sec is None or not sec.contains(vaddr, len(payload)):
            raise IndexError(f"write at {vaddr:#x} outside image")
        sec.write(vaddr, payload)

    def read_u32(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 4), "little")

    def write_u32(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------

    def add_function(self, name: str, vaddr: int, size: int, ir=None) -> Symbol:
        return self.symbols.add(Symbol(name, vaddr, size, SymbolKind.FUNCTION, ir=ir))

    def add_object(self, name: str, vaddr: int, size: int) -> Symbol:
        return self.symbols.add(Symbol(name, vaddr, size, SymbolKind.OBJECT))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def code_bytes(self) -> int:
        """Total number of bytes in executable sections."""
        return sum(sec.size for sec in self.sections if sec.executable)

    def executable_sections(self) -> List[Section]:
        return [sec for sec in self.sections if sec.executable]

    def clone(self) -> "BinaryImage":
        """Deep copy — used to compare pristine vs tampered images."""
        return copy.deepcopy(self)

    def canonical_bytes(self) -> bytes:
        """A canonical serialization of everything execution can see.

        Covers the entry point, every section (name, address,
        permissions, exact contents) and every symbol.  Two images with
        equal canonical bytes are behaviourally identical to the
        emulator; ``metadata`` is free-form bookkeeping and excluded.
        The encoding length-prefixes each field so distinct images can
        never serialize identically.
        """
        out = bytearray()

        def field(tag: bytes, payload: bytes) -> None:
            out.extend(tag)
            out.extend(len(payload).to_bytes(8, "little"))
            out.extend(payload)

        field(b"N", self.name.encode("utf-8"))
        field(b"E", self.entry.to_bytes(8, "little"))
        for sec in self.sections:  # kept sorted by vaddr
            field(b"s", sec.name.encode("utf-8"))
            field(b"a", sec.vaddr.to_bytes(8, "little"))
            field(b"p", bytes([sec.perm]))
            field(b"d", bytes(sec.data))
        for sym in sorted(self.symbols, key=lambda s: (s.vaddr, s.name)):
            field(b"y", sym.name.encode("utf-8"))
            field(b"v", sym.vaddr.to_bytes(8, "little"))
            field(b"z", sym.size.to_bytes(8, "little"))
            field(b"k", str(sym.kind).encode("utf-8"))
        return bytes(out)

    def fingerprint(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_bytes` — the image's
        content-addressed identity, used as a cache key component."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def __repr__(self) -> str:
        secs = ", ".join(s.name for s in self.sections)
        return f"<BinaryImage {self.name} entry={self.entry:#x} [{secs}]>"


__all__ = ["BinaryImage", "Section", "Perm", "Symbol", "SymbolKind", "SymbolTable"]
