"""Rules 1 & 5: existing near-return and far-return gadgets (§IV-B1, B5).

These rules require no code modification at all: any gadget already
embedded in the instruction stream protects the bytes it spans.  The
paper finds 3–6% of code bytes protectable by existing near-ret gadgets
and up to 1% by far-ret gadgets.
"""

from __future__ import annotations

from typing import List, Tuple

from ...gadgets.finder import find_gadgets_in_bytes
from ...gadgets.types import Gadget


def existing_gadgets(data: bytes, base: int) -> Tuple[List[Gadget], List[Gadget]]:
    """``(near, far)``: the section's gadgets from one scan, split by
    their terminator (``ret`` vs ``retf``)."""
    near: List[Gadget] = []
    far: List[Gadget] = []
    for gadget in find_gadgets_in_bytes(data, base=base, include_far=True):
        (far if gadget.far else near).append(gadget)
    return near, far
