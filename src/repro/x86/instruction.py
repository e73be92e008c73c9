"""The decoded/encodable instruction representation."""

from __future__ import annotations

from typing import Optional, Tuple

from .operands import Imm, Mem, Rel

#: Mnemonics that terminate a basic block / gadget.
RETURNS = frozenset({"ret", "retf"})
#: Unconditional control transfers.
UNCONDITIONAL = frozenset({"jmp", "ret", "retf", "hlt", "int"})
#: Conditional jumps (all jcc mnemonics).
CONDITIONAL_JUMPS = frozenset(
    {
        "jo", "jno", "jb", "jae", "je", "jne", "jbe", "ja",
        "js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg",
    }
)
#: All control-flow mnemonics.
CONTROL_FLOW = (
    frozenset(
        {
            "jmp", "call", "ret", "retf", "hlt", "int",
            "callf", "jmpf", "iretd", "loopne", "loope", "loop", "jecxz",
        }
    )
    | CONDITIONAL_JUMPS
)


class Instruction:
    """A single decoded IA-32 instruction.

    Attributes:
        mnemonic: lower-case mnemonic string, e.g. ``"mov"``.
        operands: tuple of operand objects (Register / Imm / Mem / Rel).
        raw: the exact encoded bytes.
        address: address the instruction was decoded at, or ``None``.
        imm_offset: byte offset of the trailing immediate/displacement
            field inside ``raw`` (used by the immediate-rewriting rules),
            or ``None`` when the instruction has no such field.
    """

    __slots__ = ("mnemonic", "operands", "raw", "address", "imm_offset", "cycle_cost")

    def __init__(
        self,
        mnemonic: str,
        operands: Tuple = (),
        raw: bytes = b"",
        address: Optional[int] = None,
        imm_offset: Optional[int] = None,
    ):
        self.mnemonic = mnemonic
        self.operands = tuple(operands)
        self.raw = bytes(raw)
        self.address = address
        self.imm_offset = imm_offset
        #: filled in lazily by the emulator's cost model
        self.cycle_cost = None

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Encoded length in bytes."""
        return len(self.raw)

    @property
    def end(self) -> Optional[int]:
        """Address of the byte after this instruction."""
        if self.address is None:
            return None
        return self.address + self.length

    @property
    def is_return(self) -> bool:
        return self.mnemonic in RETURNS

    @property
    def is_control_flow(self) -> bool:
        return self.mnemonic in CONTROL_FLOW

    @property
    def is_conditional(self) -> bool:
        return self.mnemonic in CONDITIONAL_JUMPS

    def writes_memory(self) -> bool:
        """True if the first (destination) operand is a memory reference."""
        if self.mnemonic in ("push", "call", "pushad"):
            return True
        if self.mnemonic in ("cmp", "test"):
            return False
        return bool(self.operands) and isinstance(self.operands[0], Mem)

    def branch_target(self) -> Optional[int]:
        """Absolute target of a direct branch, if known."""
        for op in self.operands:
            if isinstance(op, Rel):
                return op.target
        return None

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instruction)
            and self.mnemonic == other.mnemonic
            and self.operands == other.operands
        )

    def __hash__(self) -> int:
        return hash((self.mnemonic, self.operands))

    def __repr__(self) -> str:
        ops = ", ".join(repr(op) for op in self.operands)
        text = f"{self.mnemonic} {ops}".strip()
        if self.address is not None:
            return f"<{self.address:#x}: {text}>"
        return f"<{text}>"

    def text(self) -> str:
        """Disassembly text without address decoration."""
        ops = ", ".join(repr(op) for op in self.operands)
        return f"{self.mnemonic} {ops}".strip()
