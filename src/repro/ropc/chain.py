"""ROP chain representation.

A chain is a sequence of 32-bit words laid out in writable memory:
gadget addresses, inline constants consumed by ``pop`` gadgets, and
chain-internal label references used for stack-pivot branching.

Chains are built in two stages, mirroring the paper's §III: the compiler
first emits *kind references* (placeholder gadget addresses, the paper's
:math:`\\mathcal{R}`), then :meth:`RopChain.resolve` maps each kind to a
concrete gadget from the catalog (the recompile-with-gadget-mapping
step), preferring overlapping gadgets.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from ..gadgets.catalog import GadgetCatalog
from ..gadgets.types import Gadget, GadgetKind, GadgetOp

#: Value of the dummy code-segment word consumed by far-return gadgets.
FAR_PAD = 0x0000_0023


class ChainError(Exception):
    """Chain construction or resolution failure."""


class MissingGadget(ChainError):
    """No gadget in the catalog implements a required kind."""

    def __init__(self, kind: GadgetKind):
        super().__init__(f"catalog lacks a gadget for {kind!r}")
        self.kind = kind


class Item:
    """One chain element; most occupy one 32-bit word."""

    __slots__ = ()
    size = 4


class KindWord(Item):
    """Placeholder gadget address, resolved against a catalog later."""

    __slots__ = ("kind", "gadget")

    def __init__(self, kind: GadgetKind):
        self.kind = kind
        self.gadget: Optional[Gadget] = None

    def __repr__(self) -> str:
        if self.gadget is not None:
            return f"<Kw {self.kind.op}@{self.gadget.address:#x}>"
        return f"<Kw {self.kind.op}?>"


class ConstWord(Item):
    """Inline constant (consumed by a pop of the preceding gadget)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value & 0xFFFFFFFF

    def __repr__(self) -> str:
        return f"<Const {self.value:#x}>"


class LabelWord(Item):
    """Absolute chain address of a label, as a constant word."""

    __slots__ = ("label", "addend")

    def __init__(self, label: str, addend: int = 0):
        self.label = label
        self.addend = addend

    def __repr__(self) -> str:
        return f"<LabelWord {self.label}{self.addend:+d}>"


class DeltaWord(Item):
    """Difference of two chain label addresses (branch displacement)."""

    __slots__ = ("target", "origin")

    def __init__(self, target: str, origin: str):
        self.target = target
        self.origin = origin

    def __repr__(self) -> str:
        return f"<Delta {self.target}-{self.origin}>"


class ChainLabel(Item):
    """Marks a position inside the chain; emits no bytes."""

    __slots__ = ("name",)
    size = 0

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<Label {self.name}>"


class RopChain:
    """A verification ROP chain under construction."""

    def __init__(self, name: str = "chain"):
        self.name = name
        self.items: List[Item] = []
        self._label_counter = 0
        #: set by the compiler that built the chain; needed by the
        #: loader-stub generator.
        self.frame_cell: Optional[int] = None
        self.resume_cell: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def gadget(self, kind: GadgetKind) -> KindWord:
        item = KindWord(kind)
        self.items.append(item)
        return item

    def const(self, value: int) -> ConstWord:
        item = ConstWord(value)
        self.items.append(item)
        return item

    def label_ref(self, label: str, addend: int = 0) -> LabelWord:
        item = LabelWord(label, addend)
        self.items.append(item)
        return item

    def delta_ref(self, target: str, origin: str) -> DeltaWord:
        item = DeltaWord(target, origin)
        self.items.append(item)
        return item

    def fresh_label(self) -> str:
        """Reserve a unique label name (to be placed with :meth:`label`)."""
        name = f".L{self._label_counter}"
        self._label_counter += 1
        return name

    def label(self, name: Optional[str] = None) -> str:
        if name is None:
            name = self.fresh_label()
        self.items.append(ChainLabel(name))
        return name

    # ------------------------------------------------------------------
    # Resolution (placeholder -> concrete gadget)
    # ------------------------------------------------------------------

    def required_kinds(self) -> List[GadgetKind]:
        """Distinct kinds this chain needs — used by the pipeline to
        insert any missing standard gadgets before resolution."""
        seen = {}
        for item in self.items:
            if isinstance(item, KindWord):
                seen.setdefault(item.kind.key(), item.kind)
        return list(seen.values())

    def resolve(
        self, catalog: GadgetCatalog, rng=None, fixed_shape: bool = False
    ) -> "RopChain":
        """Bind every kind placeholder to a concrete gadget.

        With ``rng``, each placeholder samples uniformly from the kind's
        gadget set :math:`G_i` (probabilistic variant generation, §V-B);
        without, the best (overlapping-preferred) gadget is chosen.

        A far-return gadget consumes one extra (code-segment) word after
        popping eip; resolution inserts a pad word after the gadget's
        inline pop data.  ``fixed_shape`` excludes far gadgets so every
        resolved variant has identical word count — required for
        per-word probabilistic mixing of variants.
        """
        resolved = RopChain(self.name)
        resolved._label_counter = self._label_counter
        resolved.frame_cell = self.frame_cell
        resolved.resume_cell = self.resume_cell
        items = self.items
        # Deterministic resolution rotates through equally-ranked
        # gadgets per kind, so one chain exercises (and thus verifies)
        # as many overlapping gadgets as possible (§V-B's goal of a
        # small chain checking a large gadget set).
        rotation = {}
        i = 0
        # A far gadget's retf pops eip first (the *next* gadget address)
        # and the discarded code-segment word after it — so the pad word
        # belongs right after the next gadget's address in the stream.
        pending_far_pad = False
        while i < len(items):
            item = items[i]
            i += 1
            if not isinstance(item, KindWord):
                resolved.items.append(item)
                continue
            candidates = catalog.of_kind(item.kind)
            if fixed_shape:
                candidates = [g for g in candidates if not g.far]
            if item.kind.op in (GadgetOp.MOV_ESP, GadgetOp.POP_ESP):
                # Pivot gadgets must end in a plain ret: a retf here
                # would consume a word of the pivot target.
                candidates = [g for g in candidates if not g.far]
            if not candidates:
                raise MissingGadget(item.kind)
            if rng is not None:
                gadget = candidates[rng.randrange(len(candidates))]
            else:
                # rotate within the best-ranked tier (overlapping first)
                tier_key = (candidates[0].address in catalog.preferred)
                tier = [
                    g for g in candidates
                    if (g.address in catalog.preferred) == tier_key
                ]
                index = rotation.get(item.kind.key(), 0)
                rotation[item.kind.key()] = index + 1
                gadget = tier[index % len(tier)]
            expected = _expected_pops(item.kind)
            if gadget.stack_words != expected:
                raise ChainError(
                    f"gadget {gadget!r} pops {gadget.stack_words} words, "
                    f"kind expects {expected}"
                )
            word = KindWord(item.kind)
            word.gadget = gadget
            resolved.items.append(word)
            if pending_far_pad:
                resolved.items.append(ConstWord(FAR_PAD))
                pending_far_pad = False
            # Copy the gadget's inline pop data.
            for _ in range(expected):
                resolved.items.append(items[i])
                i += 1
            if gadget.far:
                pending_far_pad = True
        if pending_far_pad:
            raise ChainError("chain may not end with a far-return gadget")
        return resolved

    # ------------------------------------------------------------------
    # Layout & serialization
    # ------------------------------------------------------------------

    def layout(self, base: int) -> Dict[str, int]:
        """Assign addresses; returns label -> absolute address map."""
        labels: Dict[str, int] = {}
        offset = 0
        for item in self.items:
            if isinstance(item, ChainLabel):
                if item.name in labels:
                    raise ChainError(f"duplicate chain label {item.name!r}")
                labels[item.name] = base + offset
            offset += item.size
        return labels

    @property
    def byte_size(self) -> int:
        return sum(item.size for item in self.items)

    @property
    def word_count(self) -> int:
        return self.byte_size // 4

    def to_bytes(self, base: int) -> bytes:
        """Serialize the resolved chain for placement at ``base``."""
        labels = self.layout(base)
        words = []
        for item in self.items:
            if isinstance(item, ChainLabel):
                continue
            if isinstance(item, KindWord):
                if item.gadget is None:
                    raise ChainError(
                        f"unresolved kind {item.kind!r}; call resolve() first"
                    )
                words.append(item.gadget.address)
            elif isinstance(item, ConstWord):
                words.append(item.value)
            elif isinstance(item, LabelWord):
                if item.label not in labels:
                    raise ChainError(f"undefined chain label {item.label!r}")
                words.append((labels[item.label] + item.addend) & 0xFFFFFFFF)
            elif isinstance(item, DeltaWord):
                if item.target not in labels or item.origin not in labels:
                    raise ChainError(
                        f"undefined chain label in {item!r}"
                    )
                words.append((labels[item.target] - labels[item.origin]) & 0xFFFFFFFF)
            else:
                raise ChainError(f"unserializable item {item!r}")
        return struct.pack(f"<{len(words)}I", *words)

    def gadget_addresses(self) -> List[int]:
        """Addresses of all gadgets a resolved chain uses."""
        return [
            item.gadget.address
            for item in self.items
            if isinstance(item, KindWord) and item.gadget is not None
        ]

    def __repr__(self) -> str:
        return f"<RopChain {self.name} {self.word_count} words>"


def _expected_pops(kind: GadgetKind) -> int:
    from ..gadgets.types import GadgetOp

    if kind.op in (GadgetOp.LOAD_CONST, GadgetOp.POP_ESP):
        return 1
    return 0
