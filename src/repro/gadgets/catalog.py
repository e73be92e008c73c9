"""The gadget catalog — the paper's "gadget mapping".

Maps :class:`GadgetKind` keys to the concrete gadgets implementing them,
so the ROP compiler can resolve each operation to an address.  Overlap
bookkeeping lets the compiler honour the paper's rule that "during
compilation of the verification code, overlapping gadgets are always
preferred over non-overlapping gadgets" (§III).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set

from ..x86.registers import Register
from .types import Gadget, GadgetKind, GadgetOp


class GadgetCatalog:
    """Kind-indexed collection of gadgets."""

    def __init__(self, gadgets: Iterable[Gadget] = ()):
        self._by_kind: Dict[tuple, List[Gadget]] = defaultdict(list)
        self._all: List[Gadget] = []
        #: addresses of gadgets that overlap protected instructions —
        #: these get priority during chain compilation.
        self.preferred: Set[int] = set()
        for gadget in gadgets:
            self.add(gadget)

    def add(self, gadget: Gadget, preferred: bool = False) -> Gadget:
        self._all.append(gadget)
        self._by_kind[gadget.kind.key()].append(gadget)
        if preferred:
            self.preferred.add(gadget.address)
        return gadget

    def mark_preferred(self, address: int) -> None:
        self.preferred.add(address)

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self):
        return iter(self._all)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def of_kind(self, kind: GadgetKind) -> List[Gadget]:
        """All gadgets implementing ``kind``, preferred (overlapping) first.

        Gadgets whose terminator needs special chain layout (``ret
        imm16``) are left out: the compiler handles far returns but not
        arbitrary stack skips.
        """
        return sorted(
            (g for g in self._by_kind.get(kind.key(), []) if g.ret_imm == 0),
            key=lambda g: (g.address not in self.preferred, g.length, g.address),
        )

    def best(self, kind: GadgetKind) -> Optional[Gadget]:
        """The single best gadget for ``kind`` (overlapping, then shortest)."""
        gadgets = self.of_kind(kind)
        return gadgets[0] if gadgets else None

    # ------------------------------------------------------------------
    # Capability queries
    # ------------------------------------------------------------------

    def has(self, kind: GadgetKind) -> bool:
        return bool(self.of_kind(kind))

    def load_const_regs(self) -> List[Register]:
        """Registers for which a ``pop reg; ret`` gadget exists."""
        regs = []
        for key, gadgets in self._by_kind.items():
            if key[0] == GadgetOp.LOAD_CONST and any(g.ret_imm == 0 for g in gadgets):
                regs.append(Register.by_name(key[1]))
        return regs

    def span_map(self) -> Dict[int, int]:
        """``{address: end}`` byte spans of every catalogued gadget.

        The coverage observatory joins this against a chain's gadget
        addresses to find which code bytes each chain implicitly
        verifies; duplicate addresses keep the longest span.
        """
        spans: Dict[int, int] = {}
        for gadget in self._all:
            end = spans.get(gadget.address)
            if end is None or gadget.end > end:
                spans[gadget.address] = gadget.end
        return spans

    def kinds(self) -> List[GadgetKind]:
        out = []
        for gadgets in self._by_kind.values():
            out.append(gadgets[0].kind)
        return out

    def count_by_op(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for gadget in self._all:
            counts[gadget.kind.op] += 1
        return dict(counts)

    def usable(self) -> List[Gadget]:
        return [g for g in self._all if g.usable and g.ret_imm == 0]

    def __repr__(self) -> str:
        return f"<GadgetCatalog {len(self._all)} gadgets, {len(self._by_kind)} kinds>"
