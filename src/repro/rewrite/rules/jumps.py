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
64 KiB+ moves and are not considered.  §VII-A applies the rule to all
jmp/jcc variants and call.

The planted byte can serve two roles: it can *be* the gadget's return
opcode (as in Listing 1, where the jump offset is forced to 0xc3), or
it can be body material of a longer gadget whose return lies in the
following real instructions (typically a function epilogue's ret).  The
rule tries a small set of connector byte values for the second role.

§IV-B3 also covers *data* rearrangement: an imm32 whose value is the
address of a global variable is as controllable as a branch
displacement — moving the variable rewrites all four bytes.  The rule
therefore treats address-valued immediates (values landing in
non-executable sections) as plantable sites too; this is what makes it
the widest-reaching rule in the paper's Fig. 6.
"""

from __future__ import annotations

from typing import List, Optional

from ...binary.image import BinaryImage
from ...gadgets.types import Gadget
from ..fieldsearch import best_field_gadget, coverage_for_fields
from ...x86.decoder import decode_all
from ...x86.instruction import CONDITIONAL_JUMPS, Instruction
from ...x86.opcodes import RET_OPCODE
from ...x86.operands import Imm, Rel
from ..report import ProtectabilityReport, RULE_JUMP

_ELIGIBLE = CONDITIONAL_JUMPS | {"jmp", "call"}

#: Byte values tried in the displacement's low byte.  0xc3 terminates a
#: gadget on the spot; the others are single-byte connector opcodes
#: (nop, pop r32) that let a longer gadget decode *through* the offset
#: byte and terminate at a later, real return.
PLANT_VALUES = (0xC3, 0x90, 0x58, 0x59, 0x5A, 0x5B, 0x5E, 0x5F)


class JumpCandidate:
    """A branch whose displacement byte can host gadget material."""

    __slots__ = ("insn", "gadget", "required_shift", "planted")

    def __init__(
        self, insn: Instruction, gadget: Gadget, required_shift: int, planted: int
    ):
        self.insn = insn
        self.gadget = gadget
        #: how far the branch target must move for the low displacement
        #: byte to take the planted value (signed, in bytes)
        self.required_shift = required_shift
        #: the byte value planted into the displacement
        self.planted = planted

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


class JumpOffsetRule:
    """Finds branch displacements that can host a return opcode."""

    name = RULE_JUMP

    def __init__(self, max_insns: int = 6):
        self.max_insns = max_insns

    def find(self, image: BinaryImage) -> List[JumpCandidate]:
        data_ranges = [
            (sec.vaddr, sec.end)
            for sec in image.sections
            if not sec.executable
        ]

        def is_data_address(value: int) -> bool:
            return any(lo <= value < hi for lo, hi in data_ranges)

        candidates: List[JumpCandidate] = []
        for section in image.executable_sections():
            data = bytes(section.data)
            base = section.vaddr
            decoded = {}  # shared by the section's overlapping searches
            instructions = decode_all(data, address=base, stop_on_error=True)
            for insn in instructions:
                if insn.imm_offset is None:
                    continue
                if insn.mnemonic in _ELIGIBLE and isinstance(insn.operands[0], Rel):
                    rel = insn.operands[0]
                    width_bytes = rel.width // 8
                elif (
                    insn.operands
                    and isinstance(insn.operands[-1], Imm)
                    and insn.operands[-1].width == 32
                    and is_data_address(insn.operands[-1].value)
                ):
                    # Address literal: the pointed-to global can move, so
                    # all four bytes are plantable.
                    width_bytes = 4
                else:
                    continue
                field_start = insn.address - base + insn.imm_offset
                crafted = best_field_gadget(
                    data, base, field_start, width_bytes, self.max_insns, decoded
                )
                if crafted is None:
                    continue
                crafted.gadget.provenance = "jump_mod"
                ret_index = max(crafted.planted)
                original = data[field_start + ret_index]
                candidates.append(
                    JumpCandidate(
                        insn,
                        crafted.gadget,
                        _signed_shift(RET_OPCODE - original),
                        RET_OPCODE,
                    )
                )
        return candidates

    def fields(self, image: BinaryImage, data: bytes, base: int):
        """(offset, width) of every displacement / address-literal field."""
        data_ranges = [
            (sec.vaddr, sec.end) for sec in image.sections if not sec.executable
        ]

        def is_data_address(value: int) -> bool:
            return any(lo <= value < hi for lo, hi in data_ranges)

        out = []
        for insn in decode_all(data, address=base, stop_on_error=True):
            if insn.imm_offset is None:
                continue
            if insn.mnemonic in _ELIGIBLE and isinstance(insn.operands[0], Rel):
                width = insn.operands[0].width // 8
            elif (
                insn.operands
                and isinstance(insn.operands[-1], Imm)
                and insn.operands[-1].width == 32
                and is_data_address(insn.operands[-1].value)
            ):
                width = 4
            else:
                continue
            out.append((insn.address - base + insn.imm_offset, width))
        return out

    def measure(
        self, image: BinaryImage, report: ProtectabilityReport
    ) -> List[JumpCandidate]:
        candidates = self.find(image)
        coverage = report.rule(self.name)
        for candidate in candidates:
            coverage.add_span(candidate.gadget.span(), candidate=candidate)
        # Field-composition coverage across displacements and address
        # literals (rearranged code *and data*, §IV-B3).
        for section in image.executable_sections():
            data = bytes(section.data)
            base = section.vaddr
            covered, spans = coverage_for_fields(
                data, base, self.fields(image, data, base), self.max_insns
            )
            coverage.bytes.update(base + off for off in covered)
            coverage.candidates.extend(spans)
        return candidates
