"""Patch records: reversible byte modifications of an image.

Used by the rewriting engine (gadget insertion) and by the attack
simulations (tampering).  Every patch remembers the original bytes so it
can be reverted — the code-restore attack of
:func:`repro.attacks.run_tampered` depends on that.
"""

from __future__ import annotations

from typing import List

from .image import BinaryImage


class Patch:
    """One contiguous byte replacement."""

    __slots__ = ("vaddr", "old", "new", "reason")

    def __init__(self, vaddr: int, old: bytes, new: bytes, reason: str = ""):
        if len(old) != len(new):
            raise ValueError("patch must preserve length")
        self.vaddr = vaddr
        self.old = bytes(old)
        self.new = bytes(new)
        self.reason = reason

    @property
    def size(self) -> int:
        return len(self.new)

    @property
    def end(self) -> int:
        return self.vaddr + len(self.new)

    def apply(self, image: BinaryImage) -> None:
        current = image.read(self.vaddr, len(self.old))
        if current != self.old:
            raise ValueError(
                f"patch at {self.vaddr:#x} expected {self.old.hex()} found {current.hex()}"
            )
        image.write(self.vaddr, self.new)

    def revert(self, image: BinaryImage) -> None:
        current = image.read(self.vaddr, len(self.new))
        if current != self.new:
            raise ValueError(f"revert at {self.vaddr:#x}: patch not applied")
        image.write(self.vaddr, self.old)

    def overlaps(self, other: "Patch") -> bool:
        return self.vaddr < other.end and other.vaddr < self.end

    def __repr__(self) -> str:
        tag = f" ({self.reason})" if self.reason else ""
        return f"<Patch {self.vaddr:#x}: {self.old.hex()} -> {self.new.hex()}{tag}>"


class PatchSet:
    """An ordered collection of non-conflicting patches."""

    def __init__(self):
        self.patches: List[Patch] = []

    def add(self, patch: Patch) -> Patch:
        for existing in self.patches:
            if existing.overlaps(patch):
                raise ValueError(
                    f"patch at {patch.vaddr:#x} conflicts with existing patch at "
                    f"{existing.vaddr:#x}"
                )
        self.patches.append(patch)
        return patch

    def conflicts(self, patch: Patch) -> bool:
        return any(existing.overlaps(patch) for existing in self.patches)

    def apply(self, image: BinaryImage) -> None:
        for patch in self.patches:
            patch.apply(image)

    def revert(self, image: BinaryImage) -> None:
        for patch in reversed(self.patches):
            patch.revert(image)

    def __len__(self) -> int:
        return len(self.patches)

    def __iter__(self):
        return iter(self.patches)
