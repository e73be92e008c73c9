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

from typing import List, Optional

from ...binary.image import BinaryImage
from ...gadgets.types import Gadget
from ..fieldsearch import best_field_gadget, coverage_for_fields
from ...x86.decoder import decode_all
from ...x86.instruction import Instruction
from ...x86.opcodes import RET_OPCODE
from ...x86.operands import Imm
from ..report import ProtectabilityReport, RULE_IMM

#: Instruction families the rule applies to (§VII-A).
ELIGIBLE = frozenset({"add", "adc", "sub", "sbb", "mov"})


class ImmediateCandidate:
    """One way to craft a gadget inside an immediate field.

    Attributes:
        insn: the instruction whose immediate would be modified.
        byte_index: which byte of the immediate becomes 0xc3.
        gadget: the gadget that appears once the byte is patched
            (synthetic — it does not exist in the unmodified binary).
    """

    __slots__ = ("insn", "byte_index", "gadget")

    def __init__(self, insn: Instruction, byte_index: int, gadget: Gadget):
        self.insn = insn
        self.byte_index = byte_index
        self.gadget = gadget

    @property
    def patch_addr(self) -> int:
        return self.insn.address + self.insn.imm_offset + self.byte_index

    def __repr__(self) -> str:
        return (
            f"<ImmCandidate {self.insn!r} byte {self.byte_index} "
            f"-> gadget @{self.gadget.address:#x}>"
        )


def _eligible_instructions(data: bytes, base: int) -> List[Instruction]:
    instructions = decode_all(data, address=base, stop_on_error=True)
    out = []
    for insn in instructions:
        if insn.mnemonic not in ELIGIBLE or insn.imm_offset is None:
            continue
        if not insn.operands or not isinstance(insn.operands[-1], Imm):
            continue
        out.append(insn)
    return out


class ImmediateModificationRule:
    """Finds (and scores) immediate-modification gadget sites."""

    name = RULE_IMM

    def __init__(self, max_insns: int = 6):
        self.max_insns = max_insns

    def find(self, image: BinaryImage) -> List[ImmediateCandidate]:
        candidates: List[ImmediateCandidate] = []
        for section in image.executable_sections():
            data = bytes(section.data)
            base = section.vaddr
            decoded = {}  # shared by the section's overlapping searches
            for insn in _eligible_instructions(data, base):
                imm: Imm = insn.operands[-1]
                field_start = insn.address - base + insn.imm_offset
                crafted = best_field_gadget(
                    data, base, field_start, imm.width // 8, self.max_insns,
                    decoded,
                )
                if crafted is None:
                    continue
                crafted.gadget.provenance = "immediate_mod"
                ret_index = max(crafted.planted)
                candidates.append(
                    ImmediateCandidate(insn, ret_index, crafted.gadget)
                )
        return candidates

    def fields(self, data: bytes, base: int):
        """(offset, width) of every controllable immediate field."""
        out = []
        for insn in _eligible_instructions(data, base):
            imm: Imm = insn.operands[-1]
            out.append((insn.address - base + insn.imm_offset, imm.width // 8))
        return out

    def measure(
        self, image: BinaryImage, report: ProtectabilityReport
    ) -> List[ImmediateCandidate]:
        candidates = self.find(image)
        coverage = report.rule(self.name)
        for candidate in candidates:
            coverage.add_span(candidate.gadget.span(), candidate=candidate)
        # Field-composition coverage: gadgets chaining across several
        # controllable immediates (see fieldsearch.coverage_for_fields).
        for section in image.executable_sections():
            data = bytes(section.data)
            base = section.vaddr
            covered, spans = coverage_for_fields(
                data, base, self.fields(data, base), self.max_insns
            )
            coverage.bytes.update(base + off for off in covered)
            coverage.candidates.extend(spans)
        return candidates
