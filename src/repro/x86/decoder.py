"""IA-32 instruction decoder.

Decodes the integer subset described in :mod:`repro.x86.opcodes`.  The
decoder is deliberately strict: any byte sequence outside the supported
subset raises :class:`~repro.x86.errors.DecodeError`.  The gadget finder
exploits this to discard unaligned byte windows that are not valid code.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from .errors import DecodeError
from .instruction import Instruction
from .opcodes import (
    ARITH,
    CC_NAMES,
    GRP3_DIGITS,
    GRP5_DIGITS,
    JCC_MNEMONICS,
    SEGMENT_OPS,
    SETCC_MNEMONICS,
    SHIFT_DIGITS,
    SIMPLE,
)

#: Segment-override prefixes (decoded and ignored: flat memory model).
_SEG_PREFIXES = frozenset({0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65})
#: lock/repne/rep prefixes.
_REP_PREFIXES = frozenset({0xF0, 0xF2, 0xF3})
from .operands import Imm, Mem, Rel, SegReg, to_signed
from .registers import Register

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class _Cursor:
    """Byte cursor over the input buffer with bounds checking."""

    __slots__ = ("data", "start", "pos")

    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.start = offset
        self.pos = offset

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise DecodeError("truncated instruction", offset=self.start)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def u16(self) -> int:
        return self.u8() | (self.u8() << 8)

    def u32(self) -> int:
        return self.u8() | (self.u8() << 8) | (self.u16() << 16)

    def s8(self) -> int:
        return to_signed(self.u8(), 8)

    def s32(self) -> int:
        return to_signed(self.u32(), 32)

    @property
    def length(self) -> int:
        return self.pos - self.start

    def raw(self) -> bytes:
        return self.data[self.start : self.pos]


def _decode_modrm(cur: _Cursor, width: int):
    """Decode a modrm (+sib +disp) sequence.

    Returns ``(rm_operand, reg_field)`` where ``rm_operand`` is a Register
    or a :class:`Mem` of the requested access ``width``.
    """
    modrm = cur.u8()
    mod = modrm >> 6
    reg = (modrm >> 3) & 7
    rm = modrm & 7

    if mod == 3:
        if width == 8:
            return Register.gp8(rm), reg
        if width == 16:
            return Register.gp16(rm), reg
        return Register.gp32(rm), reg

    base = index = None
    scale = 1
    disp = 0

    if rm == 4:  # SIB byte follows
        sib = cur.u8()
        scale = 1 << (sib >> 6)
        idx = (sib >> 3) & 7
        bse = sib & 7
        if idx != 4:
            index = Register.gp32(idx)
        if bse == 5 and mod == 0:
            disp = cur.s32()
        else:
            base = Register.gp32(bse)
    elif rm == 5 and mod == 0:  # disp32, no base
        disp = cur.s32()
    else:
        base = Register.gp32(rm)

    if mod == 1:
        disp += cur.s8()
    elif mod == 2:
        disp += cur.s32()

    return Mem(base=base, index=index, scale=scale, disp=disp, width=width), reg


def decode(data: bytes, offset: int = 0, address: Optional[int] = None) -> Instruction:
    """Decode one instruction from ``data`` at ``offset``.

    Args:
        data: buffer containing encoded instructions.
        offset: byte offset to decode at.
        address: virtual address of the instruction (used to resolve
            relative branch targets); optional.

    Returns:
        The decoded :class:`~repro.x86.instruction.Instruction`.

    Raises:
        DecodeError: the bytes are not a supported instruction.
    """
    # Consume prefixes.  Segment overrides are ignored (flat memory
    # model); lock/rep keep the inner mnemonic but forbid control flow;
    # 0x66 switches to the 16-bit operand subset.
    pos = offset
    opsize16 = False
    has_rep = False
    while pos < len(data):
        byte = data[pos]
        if byte in _SEG_PREFIXES:
            pos += 1
        elif byte in _REP_PREFIXES:
            has_rep = True
            pos += 1
        elif byte == 0x66:
            opsize16 = True
            pos += 1
        else:
            break
    nprefix = pos - offset
    if nprefix > 4:
        raise DecodeError("too many prefixes", offset=offset)
    if pos >= len(data):
        raise DecodeError("truncated instruction", offset=offset)

    inner_addr = address + nprefix if address is not None else None
    if opsize16:
        inner = _decode16(data, pos, inner_addr)
    else:
        inner = _decode_bare(data, pos, inner_addr)
    if has_rep and inner.is_control_flow:
        raise DecodeError("rep-prefixed branch", offset=offset)
    if nprefix == 0:
        return inner
    return Instruction(
        inner.mnemonic,
        inner.operands,
        raw=data[offset : pos + inner.length],
        address=address,
        imm_offset=(
            inner.imm_offset + nprefix if inner.imm_offset is not None else None
        ),
    )


def _decode_bare(data: bytes, offset: int, address: Optional[int]) -> Instruction:
    """Decode one instruction with no prefixes present."""
    cur = _Cursor(data, offset)
    op = cur.u8()
    imm_off = None

    def make(mnemonic, *operands) -> Instruction:
        return Instruction(
            mnemonic,
            operands,
            raw=cur.raw(),
            address=address,
            imm_offset=imm_off,
        )

    # -- no-operand opcodes ------------------------------------------------
    if op in SIMPLE:
        return make(SIMPLE[op])
    if op in SEGMENT_OPS:
        mnemonic, segment = SEGMENT_OPS[op]
        return make(mnemonic, SegReg(segment))

    # -- group-1 arithmetic: 0x00..0x3d (skipping segment/prefix slots) ----
    if op < 0x40 and (op & 7) <= 5:
        mnemonic = ARITH[op >> 3]
        form = op & 7
        if form == 0:  # r/m8, r8
            rm, reg = _decode_modrm(cur, 8)
            return make(mnemonic, rm, Register.gp8(reg))
        if form == 1:  # r/m32, r32
            rm, reg = _decode_modrm(cur, 32)
            return make(mnemonic, rm, Register.gp32(reg))
        if form == 2:  # r8, r/m8
            rm, reg = _decode_modrm(cur, 8)
            return make(mnemonic, Register.gp8(reg), rm)
        if form == 3:  # r32, r/m32
            rm, reg = _decode_modrm(cur, 32)
            return make(mnemonic, Register.gp32(reg), rm)
        if form == 4:  # al, imm8
            imm_off = cur.length
            return make(mnemonic, Register.gp8(0), Imm(cur.u8(), 8))
        # form == 5: eax, imm32
        imm_off = cur.length
        return make(mnemonic, Register.gp32(0), Imm(cur.u32(), 32))

    # -- inc/dec/push/pop r32 ----------------------------------------------
    if 0x40 <= op <= 0x47:
        return make("inc", Register.gp32(op - 0x40))
    if 0x48 <= op <= 0x4F:
        return make("dec", Register.gp32(op - 0x48))
    if 0x50 <= op <= 0x57:
        return make("push", Register.gp32(op - 0x50))
    if 0x58 <= op <= 0x5F:
        return make("pop", Register.gp32(op - 0x58))

    if op == 0x68:
        imm_off = cur.length
        return make("push", Imm(cur.u32(), 32))
    if op == 0x6A:
        imm_off = cur.length
        return make("push", Imm(cur.u8(), 8))
    if op == 0x69:
        rm, reg = _decode_modrm(cur, 32)
        imm_off = cur.length
        return make("imul", Register.gp32(reg), rm, Imm(cur.u32(), 32))
    if op == 0x6B:
        rm, reg = _decode_modrm(cur, 32)
        imm_off = cur.length
        return make("imul", Register.gp32(reg), rm, Imm(cur.u8(), 8))

    # -- jcc rel8 ------------------------------------------------------------
    if 0x70 <= op <= 0x7F:
        imm_off = cur.length
        rel = cur.s8()
        target = address + cur.length + rel if address is not None else None
        return make(JCC_MNEMONICS[op - 0x70], Rel(rel, 8, target))

    # -- group-1 with immediate ----------------------------------------------
    if op in (0x80, 0x81, 0x83):
        width = 8 if op == 0x80 else 32
        rm, digit = _decode_modrm(cur, width)
        imm_off = cur.length
        if op == 0x81:
            imm = Imm(cur.u32(), 32)
        else:
            imm = Imm(cur.u8(), 8)
        return make(ARITH[digit], rm, imm)

    if op == 0x84:
        rm, reg = _decode_modrm(cur, 8)
        return make("test", rm, Register.gp8(reg))
    if op == 0x85:
        rm, reg = _decode_modrm(cur, 32)
        return make("test", rm, Register.gp32(reg))
    if op == 0x86:
        rm, reg = _decode_modrm(cur, 8)
        return make("xchg", rm, Register.gp8(reg))
    if op == 0x87:
        rm, reg = _decode_modrm(cur, 32)
        return make("xchg", rm, Register.gp32(reg))

    # -- mov -------------------------------------------------------------
    if op == 0x88:
        rm, reg = _decode_modrm(cur, 8)
        return make("mov", rm, Register.gp8(reg))
    if op == 0x89:
        rm, reg = _decode_modrm(cur, 32)
        return make("mov", rm, Register.gp32(reg))
    if op == 0x8A:
        rm, reg = _decode_modrm(cur, 8)
        return make("mov", Register.gp8(reg), rm)
    if op == 0x8B:
        rm, reg = _decode_modrm(cur, 32)
        return make("mov", Register.gp32(reg), rm)
    if op == 0x8D:
        rm, reg = _decode_modrm(cur, 32)
        if not isinstance(rm, Mem):
            raise DecodeError("lea requires a memory operand", offset=offset)
        return make("lea", Register.gp32(reg), rm)
    if op == 0x8F:
        rm, digit = _decode_modrm(cur, 32)
        if digit != 0:
            raise DecodeError(f"bad 0x8f digit {digit}", offset=offset)
        return make("pop", rm)

    if 0x91 <= op <= 0x97:
        return make("xchg", Register.gp32(0), Register.gp32(op - 0x90))

    if op == 0xA8:
        imm_off = cur.length
        return make("test", Register.gp8(0), Imm(cur.u8(), 8))
    if op == 0xA9:
        imm_off = cur.length
        return make("test", Register.gp32(0), Imm(cur.u32(), 32))

    if 0xB0 <= op <= 0xB7:
        imm_off = cur.length
        return make("mov", Register.gp8(op - 0xB0), Imm(cur.u8(), 8))
    if 0xB8 <= op <= 0xBF:
        imm_off = cur.length
        return make("mov", Register.gp32(op - 0xB8), Imm(cur.u32(), 32))

    # -- shift group -------------------------------------------------------
    if op in (0xC0, 0xC1):
        width = 8 if op == 0xC0 else 32
        rm, digit = _decode_modrm(cur, width)
        if digit not in SHIFT_DIGITS:
            raise DecodeError(f"unsupported shift digit {digit}", offset=offset)
        imm_off = cur.length
        return make(SHIFT_DIGITS[digit], rm, Imm(cur.u8(), 8))
    if op in (0xD0, 0xD1):
        width = 8 if op == 0xD0 else 32
        rm, digit = _decode_modrm(cur, width)
        if digit not in SHIFT_DIGITS:
            raise DecodeError(f"unsupported shift digit {digit}", offset=offset)
        return make(SHIFT_DIGITS[digit], rm, Imm(1, 8))
    if op in (0xD2, 0xD3):
        width = 8 if op == 0xD2 else 32
        rm, digit = _decode_modrm(cur, width)
        if digit not in SHIFT_DIGITS:
            raise DecodeError(f"unsupported shift digit {digit}", offset=offset)
        return make(SHIFT_DIGITS[digit], rm, Register.gp8(1))

    if op == 0xC2:
        imm_off = cur.length
        return make("ret", Imm(cur.u16(), 16))
    if op == 0xCA:
        imm_off = cur.length
        return make("retf", Imm(cur.u16(), 16))

    if op == 0xC6:
        rm, digit = _decode_modrm(cur, 8)
        if digit != 0:
            raise DecodeError(f"bad 0xc6 digit {digit}", offset=offset)
        imm_off = cur.length
        return make("mov", rm, Imm(cur.u8(), 8))
    if op == 0xC7:
        rm, digit = _decode_modrm(cur, 32)
        if digit != 0:
            raise DecodeError(f"bad 0xc7 digit {digit}", offset=offset)
        imm_off = cur.length
        return make("mov", rm, Imm(cur.u32(), 32))

    if op == 0xCD:
        imm_off = cur.length
        return make("int", Imm(cur.u8(), 8))

    # -- branches ----------------------------------------------------------
    if op == 0xE8:
        imm_off = cur.length
        rel = cur.s32()
        target = address + cur.length + rel if address is not None else None
        return make("call", Rel(rel, 32, target))
    if op == 0xE9:
        imm_off = cur.length
        rel = cur.s32()
        target = address + cur.length + rel if address is not None else None
        return make("jmp", Rel(rel, 32, target))
    if op == 0xEB:
        imm_off = cur.length
        rel = cur.s8()
        target = address + cur.length + rel if address is not None else None
        return make("jmp", Rel(rel, 8, target))

    # -- group 3 -------------------------------------------------------------
    if op in (0xF6, 0xF7):
        width = 8 if op == 0xF6 else 32
        rm, digit = _decode_modrm(cur, width)
        if digit not in GRP3_DIGITS or digit == 1:
            raise DecodeError(f"bad group-3 digit {digit}", offset=offset)
        mnemonic = GRP3_DIGITS[digit]
        if mnemonic == "test":
            imm_off = cur.length
            imm = Imm(cur.u8(), 8) if width == 8 else Imm(cur.u32(), 32)
            return make("test", rm, imm)
        return make(mnemonic, rm)

    # -- group 4/5 -----------------------------------------------------------
    if op == 0xFE:
        rm, digit = _decode_modrm(cur, 8)
        if digit == 0:
            return make("inc", rm)
        if digit == 1:
            return make("dec", rm)
        raise DecodeError(f"bad group-4 digit {digit}", offset=offset)
    if op == 0xFF:
        rm, digit = _decode_modrm(cur, 32)
        if digit not in GRP5_DIGITS:
            raise DecodeError(f"bad group-5 digit {digit}", offset=offset)
        return make(GRP5_DIGITS[digit], rm)

    # -- decode-only opcodes for realistic unaligned-decode density --------
    if op == 0x62:  # bound r32, m
        rm, reg = _decode_modrm(cur, 32)
        if not isinstance(rm, Mem):
            raise DecodeError("bound requires memory operand", offset=offset)
        return make("bound", Register.gp32(reg), rm)
    if op == 0x63:  # arpl r/m16, r16
        rm, reg = _decode_modrm(cur, 16)
        return make("arpl", rm, Register.gp16(reg))
    if op in (0x8C, 0x8E):  # mov r/m, sreg and mov sreg, r/m
        rm, reg = _decode_modrm(cur, 32)
        if reg > 5:
            raise DecodeError("bad segment register", offset=offset)
        return make("mov_seg", rm)
    if op == 0x9A:  # call far ptr16:32
        cur.u32()
        cur.u16()
        return make("callf")
    if op == 0xA0:  # mov al, [moffs32]
        addr = cur.u32()
        return make("mov", Register.gp8(0), Mem(disp=addr, width=8))
    if op == 0xA1:  # mov eax, [moffs32]
        addr = cur.u32()
        return make("mov", Register.gp32(0), Mem(disp=addr, width=32))
    if op == 0xA2:
        addr = cur.u32()
        return make("mov", Mem(disp=addr, width=8), Register.gp8(0))
    if op == 0xA3:
        addr = cur.u32()
        return make("mov", Mem(disp=addr, width=32), Register.gp32(0))
    if op == 0xC4:  # les r32, m
        rm, reg = _decode_modrm(cur, 32)
        if not isinstance(rm, Mem):
            raise DecodeError("les requires memory operand", offset=offset)
        return make("les", Register.gp32(reg), rm)
    if op == 0xC5:  # lds r32, m
        rm, reg = _decode_modrm(cur, 32)
        if not isinstance(rm, Mem):
            raise DecodeError("lds requires memory operand", offset=offset)
        return make("lds", Register.gp32(reg), rm)
    if op == 0xC8:  # enter imm16, imm8
        size = cur.u16()
        nesting = cur.u8()
        return make("enter", Imm(size, 16), Imm(nesting, 8))
    if op == 0xCF:
        return make("iretd")
    if op == 0xD4:
        imm_off = cur.length
        return make("aam", Imm(cur.u8(), 8))
    if op == 0xD5:
        imm_off = cur.length
        return make("aad", Imm(cur.u8(), 8))
    if op == 0xD6:
        return make("salc")
    if op == 0xD7:
        return make("xlat")
    if 0xD8 <= op <= 0xDF:  # x87: decoded generically, never executed
        _rm, _reg = _decode_modrm(cur, 32)
        return make("fpu")
    if 0xE0 <= op <= 0xE3:  # loopne/loope/loop/jecxz rel8
        mnemonic = ("loopne", "loope", "loop", "jecxz")[op - 0xE0]
        imm_off = cur.length
        rel = cur.s8()
        target = address + cur.length + rel if address is not None else None
        return make(mnemonic, Rel(rel, 8, target))
    if op in (0xE4, 0xE5):  # in al/eax, imm8
        imm_off = cur.length
        return make("in", Imm(cur.u8(), 8))
    if op in (0xE6, 0xE7):  # out imm8, al/eax
        imm_off = cur.length
        return make("out", Imm(cur.u8(), 8))
    if op == 0xEA:  # jmp far ptr16:32
        cur.u32()
        cur.u16()
        return make("jmpf")
    if op in (0xEC, 0xED):
        return make("in")
    if op in (0xEE, 0xEF):
        return make("out")

    # -- two-byte escape -----------------------------------------------------
    if op == 0x0F:
        op2 = cur.u8()
        if 0x40 <= op2 <= 0x4F:  # cmovcc r32, r/m32
            rm, reg = _decode_modrm(cur, 32)
            return make("cmov" + CC_NAMES[op2 - 0x40], Register.gp32(reg), rm)
        if op2 == 0x31:
            return make("rdtsc")
        if op2 == 0xA2:
            return make("cpuid")
        if op2 == 0xA3:
            rm, reg = _decode_modrm(cur, 32)
            return make("bt", rm, Register.gp32(reg))
        if op2 == 0xAB:
            rm, reg = _decode_modrm(cur, 32)
            return make("bts", rm, Register.gp32(reg))
        if op2 == 0xB3:
            rm, reg = _decode_modrm(cur, 32)
            return make("btr", rm, Register.gp32(reg))
        if op2 == 0xBB:
            rm, reg = _decode_modrm(cur, 32)
            return make("btc", rm, Register.gp32(reg))
        if op2 in (0xA4, 0xAC):  # shld/shrd r/m32, r32, imm8
            rm, reg = _decode_modrm(cur, 32)
            imm_off = cur.length
            mnemonic = "shld" if op2 == 0xA4 else "shrd"
            return make(mnemonic, rm, Register.gp32(reg), Imm(cur.u8(), 8))
        if 0xC8 <= op2 <= 0xCF:
            return make("bswap", Register.gp32(op2 - 0xC8))
        if op2 == 0xB7:
            rm, reg = _decode_modrm(cur, 16)
            return make("movzx", Register.gp32(reg), rm)
        if op2 == 0xBF:
            rm, reg = _decode_modrm(cur, 16)
            return make("movsx", Register.gp32(reg), rm)
        if 0x80 <= op2 <= 0x8F:
            imm_off = cur.length
            rel = cur.s32()
            target = address + cur.length + rel if address is not None else None
            return make(JCC_MNEMONICS[op2 - 0x80], Rel(rel, 32, target))
        if 0x90 <= op2 <= 0x9F:
            rm, _digit = _decode_modrm(cur, 8)
            return make(SETCC_MNEMONICS[op2 - 0x90], rm)
        if op2 == 0xAF:
            rm, reg = _decode_modrm(cur, 32)
            return make("imul", Register.gp32(reg), rm)
        if op2 == 0xB6:
            rm, reg = _decode_modrm(cur, 8)
            return make("movzx", Register.gp32(reg), rm)
        if op2 == 0xBE:
            rm, reg = _decode_modrm(cur, 8)
            return make("movsx", Register.gp32(reg), rm)
        raise DecodeError(f"unsupported two-byte opcode 0f {op2:02x}", offset=offset)

    raise DecodeError(f"unsupported opcode {op:02x}", offset=offset)


def _decode16(data: bytes, offset: int, address: Optional[int]) -> Instruction:
    """Decode the 16-bit (0x66-prefixed) operand subset.

    Only the forms that matter for unaligned-decode density are covered;
    anything else raises.  The address passed in is the post-prefix one.
    """
    cur = _Cursor(data, offset)
    op = cur.u8()
    imm_off = None

    def make(mnemonic, *operands) -> Instruction:
        return Instruction(
            mnemonic, operands, raw=cur.raw(), address=address, imm_offset=imm_off
        )

    if op < 0x40 and (op & 7) in (1, 3, 5):
        mnemonic = ARITH[op >> 3]
        form = op & 7
        if form == 1:
            rm, reg = _decode_modrm(cur, 16)
            return make(mnemonic, rm, Register.gp16(reg))
        if form == 3:
            rm, reg = _decode_modrm(cur, 16)
            return make(mnemonic, Register.gp16(reg), rm)
        imm_off = cur.length
        return make(mnemonic, Register.gp16(0), Imm(cur.u16(), 16))
    if 0x40 <= op <= 0x47:
        return make("inc", Register.gp16(op - 0x40))
    if 0x48 <= op <= 0x4F:
        return make("dec", Register.gp16(op - 0x48))
    if 0x50 <= op <= 0x57:
        return make("push", Register.gp16(op - 0x50))
    if 0x58 <= op <= 0x5F:
        return make("pop", Register.gp16(op - 0x58))
    if op == 0x68:
        imm_off = cur.length
        return make("push", Imm(cur.u16(), 16))
    if op in (0x81, 0x83):
        rm, digit = _decode_modrm(cur, 16)
        imm_off = cur.length
        imm = Imm(cur.u16(), 16) if op == 0x81 else Imm(cur.u8(), 8)
        return make(ARITH[digit], rm, imm)
    if op == 0x85:
        rm, reg = _decode_modrm(cur, 16)
        return make("test", rm, Register.gp16(reg))
    if op == 0x87:
        rm, reg = _decode_modrm(cur, 16)
        return make("xchg", rm, Register.gp16(reg))
    if op == 0x89:
        rm, reg = _decode_modrm(cur, 16)
        return make("mov", rm, Register.gp16(reg))
    if op == 0x8B:
        rm, reg = _decode_modrm(cur, 16)
        return make("mov", Register.gp16(reg), rm)
    if op == 0x90:
        return make("nop")
    if 0xB8 <= op <= 0xBF:
        imm_off = cur.length
        return make("mov", Register.gp16(op - 0xB8), Imm(cur.u16(), 16))
    if op == 0xC7:
        rm, digit = _decode_modrm(cur, 16)
        if digit != 0:
            raise DecodeError(f"bad 0x66 c7 digit {digit}", offset=offset)
        imm_off = cur.length
        return make("mov", rm, Imm(cur.u16(), 16))
    raise DecodeError(f"unsupported 16-bit opcode {op:02x}", offset=offset)


def decode_all_cached(
    data: bytes, address: int = 0, stop_on_error: bool = False
) -> List[Instruction]:
    """Content-addressed :func:`decode_all`.

    Keyed on the exact input bytes (plus address and error mode), so two
    distinct encodings can never alias — equal keys imply equal inputs.
    The cached instruction list is shared; callers receive a fresh list
    but must not mutate the instructions themselves (the emulator's
    lazy ``cycle_cost`` memoization is the one sanctioned exception —
    it is idempotent for a given instruction).
    """
    from ..cache import cached

    insns, _hit = cached(
        "decode",
        (data, address, stop_on_error),
        lambda: decode_all(data, address=address, stop_on_error=stop_on_error),
    )
    return list(insns)


def decode_all(
    data: bytes, address: int = 0, stop_on_error: bool = False
) -> List[Instruction]:
    """Linearly disassemble ``data`` starting at virtual ``address``.

    Args:
        data: the code bytes.
        address: virtual address of ``data[0]``.
        stop_on_error: if true, stop quietly at the first undecodable
            byte; otherwise propagate :class:`DecodeError`.
    """
    out = []
    offset = 0
    while offset < len(data):
        try:
            insn = decode(data, offset, address + offset)
        except DecodeError:
            if stop_on_error:
                break
            raise
        out.append(insn)
        offset += insn.length
    return out
