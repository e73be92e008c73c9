"""Rule 2: modified immediate operands (§IV-B2).

A partial gadget ending just before an immediate operand can be
completed by rewriting one byte of the immediate to a return opcode
(0xc3).  The semantic damage is repaired by *instruction splitting*:

* ``add/adc/sub/sbb r, K``  →  ``op r, K'`` followed by a compensating
  ``add/sub r, K-K'`` (K' chosen so its encoding contains 0xc3);
* ``mov r, K``  →  ``mov r, K^D; xor r, D`` (the paper's Listing 3);
* immediates that set a return value / exit status before ``ret`` may
  simply be changed, since such semantics usually only distinguish zero
  from non-zero.

Following §VII-A, the rule considers only add/adc/sub/sbb/mov.
Measurement is byte-accurate at the binary level; *application* is done
by recompiling the owning function from IR
(:class:`repro.rewrite.apply.ImmediateSplitter`), mirroring the paper's
source-assisted prototype.
"""

from __future__ import annotations

from typing import Optional

from ...x86.instruction import Instruction
from ...x86.operands import Imm
from ..fieldsearch import FieldGadget

#: Instruction families the rule applies to (§VII-A).
ELIGIBLE = frozenset({"add", "adc", "sub", "sbb", "mov"})


def immediate_field_width(insn: Instruction) -> Optional[int]:
    """Byte width of ``insn``'s modifiable immediate (None: not eligible)."""
    if insn.mnemonic not in ELIGIBLE or insn.imm_offset is None:
        return None
    if not insn.operands or not isinstance(insn.operands[-1], Imm):
        return None
    return insn.operands[-1].width // 8


class ImmediateCandidate:
    """One way to craft a gadget inside an immediate field.

    Attributes:
        insn: the instruction whose immediate would be modified.
        byte_index: which byte of the immediate becomes 0xc3.
        gadget: the gadget that appears once the byte is patched
            (synthetic — it does not exist in the unmodified binary).

    Built from the field search's result; the field's current bytes
    (``field``) do not matter, since splitting compensates any value.
    """

    __slots__ = ("insn", "byte_index", "gadget")

    def __init__(self, insn: Instruction, crafted: FieldGadget, field: bytes):
        self.insn = insn
        self.byte_index = max(crafted.planted)
        self.gadget = crafted.gadget

    @property
    def patch_addr(self) -> int:
        return self.insn.address + self.insn.imm_offset + self.byte_index

    def __repr__(self) -> str:
        return (
            f"<ImmCandidate {self.insn!r} byte {self.byte_index} "
            f"-> gadget @{self.gadget.address:#x}>"
        )
