"""Builder-style assembler with label support.

Example::

    from repro.x86 import Assembler, EAX, EBX

    a = Assembler(base=0x1000)
    a.mov(EAX, 0)
    a.label("loop")
    a.add(EAX, 1)
    a.cmp(EAX, 10)
    a.jne("loop")
    a.ret()
    code = a.assemble()

Integers passed as operands are wrapped into :class:`Imm` automatically
(8-bit wide when they fit in a signed byte, matching gcc's preference for
the sign-extended imm8 forms).  Pass an explicit ``Imm(value, 32)`` to
force a 4-byte immediate — the immediate-rewriting rules rely on those.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .decoder import decode_all
from .encoder import assemble as encode_insn
from .errors import AssemblerError
from .instruction import Instruction
from .operands import Imm, Mem, Rel, fits_signed
from .registers import Register

#: Mnemonics the builder accepts as attribute calls.
_MNEMONICS = frozenset(
    {
        "add", "or", "adc", "sbb", "and", "sub", "xor", "cmp", "mov", "lea",
        "test", "xchg", "shl", "shr", "sar", "push", "pop", "inc", "dec",
        "not", "neg", "mul", "imul", "div", "idiv", "ret", "retf", "int",
        "call", "jmp", "nop", "leave", "cdq", "pushad", "popad", "int3",
        "hlt", "movzx", "movsx",
        "jo", "jno", "jb", "jae", "je", "jne", "jbe", "ja",
        "js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg",
        "seto", "setno", "setb", "setae", "sete", "setne", "setbe", "seta",
        "sets", "setns", "setp", "setnp", "setl", "setge", "setle", "setg",
    }
)

_BRANCHES = frozenset(
    {
        "call", "jmp",
        "jo", "jno", "jb", "jae", "je", "jne", "jbe", "ja",
        "js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg",
    }
)


class _Fixup:
    __slots__ = ("offset", "length", "imm_offset", "label", "width")

    def __init__(self, offset, length, imm_offset, label, width):
        self.offset = offset
        self.length = length
        self.imm_offset = imm_offset
        self.label = label
        self.width = width


class Assembler:
    """Two-pass assembler producing flat code bytes.

    Args:
        base: virtual address of the first emitted byte; label targets and
            decoded listings are relative to it.
    """

    def __init__(self, base: int = 0):
        self.base = base
        self._buf = bytearray()
        self._labels: Dict[str, int] = {}
        self._fixups: List[_Fixup] = []

    # ------------------------------------------------------------------
    # Emission primitives
    # ------------------------------------------------------------------

    @property
    def offset(self) -> int:
        """Current emission offset from ``base``."""
        return len(self._buf)

    @property
    def here(self) -> int:
        """Current virtual address."""
        return self.base + len(self._buf)

    def label(self, name: str) -> int:
        """Define ``name`` at the current offset; returns its address."""
        if name in self._labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self._labels[name] = self.offset
        return self.here

    def raw(self, data: bytes) -> "Assembler":
        """Emit raw bytes verbatim."""
        self._buf += data
        return self

    def align(self, boundary: int, fill: int = 0x90) -> "Assembler":
        """Pad with ``fill`` bytes (nop by default) to ``boundary``."""
        while (self.base + len(self._buf)) % boundary:
            self._buf.append(fill)
        return self

    def pad_to(self, offset: int, fill: int = 0x90) -> "Assembler":
        """Pad with ``fill`` until the buffer is ``offset`` bytes long."""
        if offset < len(self._buf):
            raise AssemblerError("cannot pad backwards")
        self._buf += bytes([fill]) * (offset - len(self._buf))
        return self

    # ------------------------------------------------------------------
    # Operand coercion
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(mnemonic: str, index: int, ops: tuple) -> tuple:
        out = []
        for i, op in enumerate(ops):
            if isinstance(op, int):
                width = 32
                if i > 0 and isinstance(ops[0], (Register, Mem)) and ops[0].width == 8:
                    width = 8
                elif mnemonic in ("shl", "shr", "sar", "int") and i == 1:
                    width = 8
                elif fits_signed(op, 8) and mnemonic not in ("mov",):
                    width = 8
                out.append(Imm(op, width))
            else:
                out.append(op)
        return tuple(out)

    # ------------------------------------------------------------------
    # Instruction emission
    # ------------------------------------------------------------------

    def emit(self, mnemonic: str, *ops, **options) -> "Assembler":
        """Assemble and append one instruction."""
        if mnemonic in _BRANCHES and ops and isinstance(ops[0], str):
            return self._emit_branch(mnemonic, ops[0])
        ops = self._coerce(mnemonic, 0, ops)
        self._buf += encode_insn(mnemonic, *ops, **options)
        return self

    def _emit_branch(self, mnemonic: str, label: str) -> "Assembler":
        # Always the rel32 form so the fixup size is known up front.
        placeholder = Rel(0, 32)
        encoded = encode_insn(mnemonic, placeholder)
        imm_offset = len(encoded) - 4
        self._fixups.append(
            _Fixup(self.offset, len(encoded), imm_offset, label, 32)
        )
        self._buf += encoded
        return self

    def __getattr__(self, name: str):
        if name.startswith("_") or name not in _MNEMONICS:
            raise AttributeError(name)

        def emitter(*ops, **options):
            return self.emit(name, *ops, **options)

        return emitter

    # Reserved-word mnemonics can't be attributes.
    def and_(self, *ops, **options) -> "Assembler":
        return self.emit("and", *ops, **options)

    def or_(self, *ops, **options) -> "Assembler":
        return self.emit("or", *ops, **options)

    def not_(self, *ops, **options) -> "Assembler":
        return self.emit("not", *ops, **options)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def address_of(self, label: str) -> int:
        """Virtual address of a defined label."""
        if label not in self._labels:
            raise AssemblerError(f"undefined label {label!r}")
        return self.base + self._labels[label]

    def assemble(self) -> bytes:
        """Resolve fixups and return the final code bytes."""
        for fix in self._fixups:
            if fix.label not in self._labels:
                raise AssemblerError(f"undefined label {fix.label!r}")
            target = self._labels[fix.label]
            rel = target - (fix.offset + fix.length)
            pos = fix.offset + fix.imm_offset
            self._buf[pos : pos + 4] = (rel & 0xFFFFFFFF).to_bytes(4, "little")
        self._fixups = []
        return bytes(self._buf)

    def disassemble(self) -> List[Instruction]:
        """Round-trip the assembled bytes through the decoder."""
        return decode_all(self.assemble(), address=self.base)
