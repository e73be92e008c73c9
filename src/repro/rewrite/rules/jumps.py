"""Rule 3: rearranged code and data — gadgets inside jump offsets and
address literals (§IV-B3).

Branch displacements are just bytes; by realigning the branch target
(padding functions, shuffling layout) Parallax can force a displacement
byte to equal the ``ret`` opcode, completing a partial gadget that
begins in the preceding instruction bytes.  Listing 1 does exactly this
with the ``jmp cleanup_and_exit`` offset.

Feasibility model: the low displacement byte of any rel8/rel32 branch
is freely choosable (moving the target by < 256 bytes is always within
the layout engine's padding budget); higher rel32 bytes would need
64 KiB+ moves.  §VII-A applies the rule to all jmp/jcc variants and
call.

Each candidate is the longest gadget
:func:`~repro.rewrite.fieldsearch.best_field_gadget` crafts for the
field: nop filler and a terminating ``ret`` planted in the field's last
bytes, as in Listing 1.  The ret always lands on the field's *last*
byte, so a rel32 candidate rewrites the displacement's high byte too,
which the model above does not allow; ``required_shift`` is that last
byte's change.

§IV-B3 also covers *data* rearrangement: an imm32 whose value is the
address of a global variable is as controllable as a branch
displacement — moving the variable rewrites all four bytes.  The rule
therefore treats address-valued immediates (values landing in
non-executable sections) as plantable sites too; this is what makes it
the widest-reaching rule in the paper's Fig. 6.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...x86.instruction import CONDITIONAL_JUMPS, Instruction
from ...x86.opcodes import RET_OPCODE
from ...x86.operands import Imm, Rel
from ..fieldsearch import FieldGadget

_ELIGIBLE = CONDITIONAL_JUMPS | {"jmp", "call"}


def jump_field_width(
    insn: Instruction, data_ranges: List[Tuple[int, int]]
) -> Optional[int]:
    """Byte width of ``insn``'s branch displacement or address literal
    (None: it has neither).  ``data_ranges`` are the ``[lo, hi)``
    address ranges of the image's non-executable sections."""
    if insn.imm_offset is None:
        return None
    if insn.mnemonic in _ELIGIBLE and isinstance(insn.operands[0], Rel):
        return insn.operands[0].width // 8
    last = insn.operands[-1] if insn.operands else None
    if (
        isinstance(last, Imm)
        and last.width == 32
        and any(lo <= last.value < hi for lo, hi in data_ranges)
    ):
        # Address literal: the pointed-to global can move, so all four
        # bytes are plantable.
        return 4
    return None


class JumpCandidate:
    """A branch whose displacement byte can host gadget material."""

    __slots__ = ("insn", "gadget", "required_shift", "planted")

    def __init__(self, insn: Instruction, crafted: FieldGadget, field: bytes):
        self.insn = insn
        self.gadget = crafted.gadget
        #: how far the branch target must move for the field byte that
        #: hosts the ret to take the planted value (signed, in bytes)
        self.required_shift = _signed_shift(
            RET_OPCODE - field[max(crafted.planted)]
        )
        #: the byte value planted into the displacement
        self.planted = RET_OPCODE

    @property
    def patch_addr(self) -> int:
        return self.insn.address + self.insn.imm_offset

    def __repr__(self) -> str:
        return (
            f"<JumpCandidate {self.insn!r} shift {self.required_shift:+d} "
            f"-> gadget @{self.gadget.address:#x}>"
        )


def _signed_shift(delta: int) -> int:
    """Normalize a byte-value change to the smaller signed target move."""
    delta %= 256
    return delta - 256 if delta > 127 else delta
