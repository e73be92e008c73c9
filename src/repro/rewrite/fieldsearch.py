"""Field-level gadget synthesis — the core of the modification rules.

An immediate operand or branch displacement is a *field* of 1–4 bytes
whose value Parallax controls completely (by instruction splitting, xor
compensation, or target/variable relocation).  To craft a gadget that
overlaps the code before the field, we look for a decode path that
starts in the preceding instruction bytes and reaches an instruction
boundary *inside* the field; the remaining field bytes are then planted
with filler (nop) and a terminating ``ret``:

    real bytes ... | field byte .. byte | ...
    [ body instructions ][ nop .. nop ret]
    ^ gadget start                     ^ planted 0xc3

The body decodes from genuine (unmodifiable) bytes, so the gadget is
valid by construction; everything from its start to the end of the
field becomes protectable.  This is exactly the paper's "a partial
gadget may be combined with an adjacent immediate operand if this
operand can be modified to encode the missing portion of the desired
gadget" (§IV-B2), and its jump-offset twin (§IV-B3).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional

from ..gadgets.finder import MAX_GADGET_INSNS, MAX_LOOKBACK_BYTES
from ..gadgets.semantics import classify
from ..gadgets.types import Gadget
from ..x86.decoder import decode
from ..x86.errors import DecodeError
from ..x86.instruction import Instruction

NOP = 0x90
RET = 0xC3


class FieldGadget:
    """A synthesizable gadget anchored in a controllable field.

    Attributes:
        gadget: the classified gadget (synthetic).
        start: gadget start address.
        planted: mapping of field byte offset -> value to plant
            (relative to the field start).
    """

    __slots__ = ("gadget", "planted")

    def __init__(self, gadget: Gadget, planted: dict):
        self.gadget = gadget
        self.planted = planted


def best_field_gadget(
    data: bytes,
    base: int,
    field_start: int,
    field_width: int,
    decoded: Optional[Dict[int, Optional[Instruction]]] = None,
) -> Optional[FieldGadget]:
    """The longest gadget craftable around one controllable field
    (``None`` if there is none).

    Args:
        data: section bytes.
        base: section virtual address.
        field_start: offset of the field within ``data``.
        field_width: field size in bytes (1–4).
        decoded: offset -> instruction decoded there (``None``: no
            instruction), filled as the search decodes.  Neighbouring
            fields' searches walk the same offsets, so a caller passes
            one dict per section (see :func:`_decode_memo`).
    """
    field_last = field_start + field_width - 1
    decode_at = _decode_memo(data, base, decoded)
    best = None
    for start in range(max(0, field_start - MAX_LOOKBACK_BYTES), field_last + 1):
        crafted = _craft_from(decode_at, base, start, field_start, field_last)
        if crafted is not None and (
            best is None or crafted.gadget.length > best.gadget.length
        ):
            best = crafted
    return best


def _decode_memo(
    data: bytes, base: int, decoded: Optional[Dict[int, Optional[Instruction]]] = None
) -> Callable[[int], Optional[Instruction]]:
    """``decode_at(pos)``: the instruction at offset ``pos`` of the
    section (``None`` where it does not decode), each offset decoded
    once into ``decoded``."""
    if decoded is None:
        decoded = {}

    def decode_at(pos: int) -> Optional[Instruction]:
        try:
            return decoded[pos]
        except KeyError:
            pass
        try:
            insn = decode(data, pos, address=base + pos)
        except DecodeError:
            insn = None
        decoded[pos] = insn
        return insn

    return decode_at


def _craft_from(
    decode_at: Callable[[int], Optional[Instruction]],
    base: int,
    start: int,
    field_start: int,
    field_last: int,
) -> Optional[FieldGadget]:
    """Try to craft a gadget starting at ``start``.

    Decodes real bytes until a boundary falls inside the field, then
    plants nop-filler and a ret up to the field end.  Field bytes read
    by body instructions keep their current values (a legal choice — we
    control them).
    """
    instructions: List[Instruction] = []
    pos = start
    while len(instructions) < MAX_GADGET_INSNS:
        if field_start <= pos <= field_last:
            break  # boundary inside the field: plant the tail here
        insn = decode_at(pos)
        if insn is None:
            return None
        if insn.is_return:
            return None  # plain existing gadget; not this rule's find
        if insn.is_control_flow:
            return None
        instructions.append(insn)
        pos += insn.length
        if pos > field_last:
            return None  # overshot the whole field
    else:
        return None

    filler = field_last - pos
    if len(instructions) + filler + 1 > MAX_GADGET_INSNS:
        return None

    planted = {}
    for i in range(filler):
        planted[pos - field_start + i] = NOP
        instructions.append(
            Instruction("nop", (), raw=b"\x90", address=base + pos + i)
        )
    planted[field_last - field_start] = RET
    instructions.append(
        Instruction("ret", (), raw=b"\xc3", address=base + field_last)
    )

    gadget = classify(instructions)
    if gadget is None:
        return None
    gadget.synthetic = True
    gadget.provenance = "field"
    return FieldGadget(gadget, planted)


# ----------------------------------------------------------------------
# Field-composition coverage (dynamic program)
# ----------------------------------------------------------------------
#
# Fields are dense in compiled code (most instructions carry an
# immediate or displacement).  Parallax can plant bytes in *several*
# fields of one gadget: a byte near the end of field A can encode a
# "consumer" opcode whose operand swallows the fixed bytes between A
# and the next field B, so the decode path lands inside B — where
# filler and the terminating ret can be planted.  Chaining this across
# fields yields gadgets spanning long stretches of code, which is how
# the paper's rules reach their Fig. 6 coverage.
#
# Consumer feasibility, by fixed-gap length g (register-only consumers,
# no memory side effects):
#   g == 1: 1 plantable byte  (e.g. 0x04: add al, imm8)
#   g == 2: 2 plantable bytes (e.g. 0x66 0x05: add ax, imm16)
#   g == 4: 1 plantable byte  (e.g. 0xb8: mov eax, imm32)
#   g == 3: 3 plantable bytes (e.g. 0x66 0xc7 0xc0: mov word ax-form imm16)
#: plantable-byte cost to consume a fixed gap of g bytes.
_CONSUMER_COST = {1: 1, 2: 2, 3: 3, 4: 1}

#: Mnemonics that end a fixed-byte decode step inside the DP.
from ..x86.instruction import CONTROL_FLOW as _CONTROL_FLOW

_DP_FORBIDDEN = _CONTROL_FLOW | {
    "leave", "pushad", "popad", "div", "idiv", "in", "out", "cli",
    "sti", "enter", "into", "bound", "int3",
}


class SpanCandidate:
    """Lightweight record of a craftable overlapping gadget (DP result).

    Carries enough for coverage accounting; it is not classified into a
    :class:`Gadget`.
    """

    __slots__ = ("start", "end", "anchor_field", "insn", "provenance")

    def __init__(self, start, end, anchor_field, insn=None, provenance="field_dp"):
        self.start = start
        self.end = end
        self.anchor_field = anchor_field
        self.insn = insn
        self.provenance = provenance

    @property
    def length(self):
        return self.end - self.start

    def span(self):
        return range(self.start, self.end)

    def __repr__(self):
        return f"<SpanCandidate {self.start:#x}..{self.end:#x}>"


def coverage_for_fields(data, base, fields, decoded=None):
    """Protectable-byte coverage achievable over a set of fields.

    Args:
        data: section bytes.
        base: section virtual address.
        fields: list of (offset, width) controllable byte ranges,
            non-overlapping.
        decoded: the section's shared decode table, as for
            :func:`best_field_gadget`.

    Returns:
        (covered, candidates): a set of covered *offsets* and one
        :class:`SpanCandidate` per anchor field that can host a ret.
    """
    n = len(data)
    field_at = {}
    field_list = sorted(fields)
    for start, width in field_list:
        for i in range(width):
            field_at[start + i] = (start, width)
    starts = [s for s, _ in field_list]
    decode_at = _decode_memo(data, base, decoded)

    def next_field(pos):
        """The first field starting at or after ``pos``."""
        idx = bisect.bisect_left(starts, pos)
        if idx < len(starts):
            return field_list[idx]
        return None

    def fixed_step(pos):
        """Offset after the real instruction at ``pos``; None if the
        instruction cannot be part of a gadget body."""
        insn = decode_at(pos)
        if insn is None or insn.is_return or insn.mnemonic in _DP_FORBIDDEN:
            return None
        dst = insn.operands[0] if insn.operands else None
        writes_esp = getattr(dst, "name", None) == "esp"
        if writes_esp and insn.mnemonic not in ("push", "pop"):
            return None
        return pos + insn.length

    # Walk from every start; record the farthest-back start that reaches
    # a plantable termination, per anchor field.
    covered = set()
    best_for_anchor = {}

    def filler_insns(nbytes):
        # planted filler need not be single nops: mov ax, imm16 covers 4
        # bytes in one instruction, add al, imm8 covers 2, etc.
        return (nbytes + 3) // 4

    for start in range(n):
        pos = start
        insns = 0
        # budget walk
        while insns < MAX_GADGET_INSNS and pos < n:
            field = field_at.get(pos)
            if field is not None:
                fstart, fwidth = field
                fend = fstart + fwidth  # one past last byte
                # Option A: plant filler then ret at the field's last byte.
                filler = filler_insns((fend - 1) - pos)
                if insns + filler + 1 <= MAX_GADGET_INSNS:
                    end = fend  # gadget covers through the ret byte
                    covered.update(range(start, end))
                    prev = best_for_anchor.get(fstart)
                    if prev is None or base + start < prev.start:
                        best_for_anchor[fstart] = SpanCandidate(
                            base + start, base + end, (fstart, fwidth)
                        )
                # Option B: bridge across the fixed gap to the next field
                # with a consumer instruction planted at the field tail.
                nxt = next_field(fend)
                if nxt is not None:
                    gap = nxt[0] - fend
                    cost = _CONSUMER_COST.get(gap)
                    if cost is not None and (fend - pos) >= cost:
                        # filler up to the consumer, consumer, then land
                        steps = filler_insns((fend - pos) - cost) + 1
                        if insns + steps <= MAX_GADGET_INSNS:
                            pos = nxt[0]
                            insns += steps
                            continue
                # Option C: filler through the rest of the field, falling
                # into the fixed bytes after it (no bridge needed if the
                # next bytes decode).
                filler = filler_insns(fend - pos)
                if insns + filler <= MAX_GADGET_INSNS:
                    pos = fend
                    insns += filler
                    continue
                break
            nxt_pos = fixed_step(pos)
            if nxt_pos is None:
                break
            pos = nxt_pos
            insns += 1
    return covered, list(best_for_anchor.values())
