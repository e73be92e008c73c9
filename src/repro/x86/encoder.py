"""IA-32 instruction encoder.

``assemble(mnemonic, *operands)`` returns the encoded bytes for one
instruction.  The encoder emits exactly the forms the decoder understands;
:mod:`repro.x86.asm` round-trips every emitted instruction through the
decoder to guarantee agreement.
"""

from __future__ import annotations

import struct

from .errors import EncodeError
from .opcodes import (
    ARITH_DIGIT_OF,
    CC_NAMES,
    GRP3_DIGIT_OF,
    SHIFT_DIGIT_OF,
    SIMPLE_OF,
)
from .operands import Imm, Mem, Rel, fits_signed, to_unsigned
from .registers import Register

_P8 = struct.Struct("<B")
_P16 = struct.Struct("<H")
_P32 = struct.Struct("<I")


def _u8(value: int) -> bytes:
    return _P8.pack(to_unsigned(value, 8))


def _u16(value: int) -> bytes:
    return _P16.pack(to_unsigned(value, 16))


def _u32(value: int) -> bytes:
    return _P32.pack(to_unsigned(value, 32))


def _imm_bytes(imm: Imm) -> bytes:
    if imm.width == 8:
        return _u8(imm.value)
    if imm.width == 16:
        return _u16(imm.value)
    return _u32(imm.value)


def _modrm(mod: int, reg: int, rm: int) -> int:
    return (mod << 6) | (reg << 3) | rm


def _sib(scale: int, index: int, base: int) -> int:
    return ({1: 0, 2: 1, 4: 2, 8: 3}[scale] << 6) | (index << 3) | base


def encode_modrm(reg_field: int, rm) -> bytes:
    """Encode the modrm (+sib +disp) bytes for operand ``rm``.

    ``rm`` is a :class:`Register` (mod=3) or a :class:`Mem`.
    """
    if isinstance(rm, Register):
        return bytes([_modrm(3, reg_field, rm.code)])
    if not isinstance(rm, Mem):
        raise EncodeError(f"cannot encode {rm!r} as r/m")

    base, index, scale, disp = rm.base, rm.index, rm.scale, rm.disp

    # Absolute address: mod=00, rm=101, disp32.
    if base is None and index is None:
        return bytes([_modrm(0, reg_field, 5)]) + _u32(disp)

    needs_sib = index is not None or (base is not None and base.code == 4)

    if base is None:
        # Index without base: SIB with base=101 and mandatory disp32.
        sib = _sib(scale, index.code, 5)
        return bytes([_modrm(0, reg_field, 4), sib]) + _u32(disp)

    # Pick displacement size.  ebp as base with mod=00 means "disp32 only",
    # so a zero displacement on ebp still needs the disp8 form.
    if disp == 0 and base.code != 5:
        mod, disp_bytes = 0, b""
    elif fits_signed(disp, 8):
        mod, disp_bytes = 1, _u8(disp)
    else:
        mod, disp_bytes = 2, _u32(disp)

    if needs_sib:
        idx_code = index.code if index is not None else 4
        sib = _sib(scale, idx_code, base.code)
        return bytes([_modrm(mod, reg_field, 4), sib]) + disp_bytes
    return bytes([_modrm(mod, reg_field, base.code)]) + disp_bytes


def _is_reg(op, width=None) -> bool:
    return isinstance(op, Register) and (width is None or op.width == width)


def _is_rm(op, width) -> bool:
    if isinstance(op, Register):
        return op.width == width
    return isinstance(op, Mem) and op.width == width


def _encode_arith(mnemonic: str, dst, src, prefer_imm8: bool = True) -> bytes:
    base = ARITH_DIGIT_OF[mnemonic] << 3
    if isinstance(src, Imm):
        digit = ARITH_DIGIT_OF[mnemonic]
        if _is_rm(dst, 8):
            if src.width != 8:
                raise EncodeError("8-bit arith needs an 8-bit immediate")
            if _is_reg(dst, 8) and dst.code == 0:
                return bytes([base + 4]) + _imm_bytes(src)
            return b"\x80" + encode_modrm(digit, dst) + _imm_bytes(src)
        if _is_rm(dst, 32):
            if src.width == 8 and prefer_imm8:
                return b"\x83" + encode_modrm(digit, dst) + _imm_bytes(src)
            imm = Imm(src.signed, 32) if src.width == 8 else src
            if _is_reg(dst, 32) and dst.code == 0:
                return bytes([base + 5]) + _imm_bytes(imm)
            return b"\x81" + encode_modrm(digit, dst) + _imm_bytes(imm)
        raise EncodeError(f"bad arith destination {dst!r}")
    if _is_reg(src, 8) and _is_rm(dst, 8):
        return bytes([base + 0]) + encode_modrm(src.code, dst)
    if _is_reg(src, 32) and _is_rm(dst, 32):
        return bytes([base + 1]) + encode_modrm(src.code, dst)
    if _is_reg(dst, 8) and isinstance(src, Mem) and src.width == 8:
        return bytes([base + 2]) + encode_modrm(dst.code, src)
    if _is_reg(dst, 32) and isinstance(src, Mem) and src.width == 32:
        return bytes([base + 3]) + encode_modrm(dst.code, src)
    raise EncodeError(f"bad operands for {mnemonic}: {dst!r}, {src!r}")


def _encode_mov(dst, src, rm_imm_form: bool = False) -> bytes:
    if isinstance(src, Imm):
        if _is_reg(dst, 32) and not rm_imm_form:
            imm = Imm(src.signed, 32) if src.width != 32 else src
            return bytes([0xB8 + dst.code]) + _imm_bytes(imm)
        if _is_reg(dst, 8) and not rm_imm_form:
            if src.width != 8:
                raise EncodeError("mov r8 needs an 8-bit immediate")
            return bytes([0xB0 + dst.code]) + _imm_bytes(src)
        if _is_rm(dst, 8):
            return b"\xc6" + encode_modrm(0, dst) + _imm_bytes(Imm(src.signed, 8))
        if _is_rm(dst, 32):
            imm = Imm(src.signed, 32) if src.width != 32 else src
            return b"\xc7" + encode_modrm(0, dst) + _imm_bytes(imm)
        raise EncodeError(f"bad mov destination {dst!r}")
    if _is_reg(src, 8) and _is_rm(dst, 8):
        return b"\x88" + encode_modrm(src.code, dst)
    if _is_reg(src, 32) and _is_rm(dst, 32):
        return b"\x89" + encode_modrm(src.code, dst)
    if _is_reg(dst, 8) and isinstance(src, Mem) and src.width == 8:
        return b"\x8a" + encode_modrm(dst.code, src)
    if _is_reg(dst, 32) and isinstance(src, Mem) and src.width == 32:
        return b"\x8b" + encode_modrm(dst.code, src)
    raise EncodeError(f"bad operands for mov: {dst!r}, {src!r}")


def _encode_shift(mnemonic: str, dst, count) -> bytes:
    digit = SHIFT_DIGIT_OF[mnemonic]
    if isinstance(count, Register):
        if count.name != "cl":
            raise EncodeError("shift count register must be cl")
        opcode = 0xD2 if _is_rm(dst, 8) else 0xD3
        return bytes([opcode]) + encode_modrm(digit, dst)
    if not isinstance(count, Imm):
        raise EncodeError(f"bad shift count {count!r}")
    if count.value == 1:
        opcode = 0xD0 if _is_rm(dst, 8) else 0xD1
        return bytes([opcode]) + encode_modrm(digit, dst)
    opcode = 0xC0 if _is_rm(dst, 8) else 0xC1
    return bytes([opcode]) + encode_modrm(digit, dst) + _u8(count.value)


def _encode_test(dst, src) -> bytes:
    if isinstance(src, Imm):
        if _is_reg(dst, 8) and dst.code == 0:
            return b"\xa8" + _imm_bytes(Imm(src.signed, 8))
        if _is_reg(dst, 32) and dst.code == 0:
            return b"\xa9" + _imm_bytes(Imm(src.signed, 32))
        if _is_rm(dst, 8):
            return b"\xf6" + encode_modrm(0, dst) + _imm_bytes(Imm(src.signed, 8))
        return b"\xf7" + encode_modrm(0, dst) + _imm_bytes(Imm(src.signed, 32))
    if _is_reg(src, 8) and _is_rm(dst, 8):
        return b"\x84" + encode_modrm(src.code, dst)
    if _is_reg(src, 32) and _is_rm(dst, 32):
        return b"\x85" + encode_modrm(src.code, dst)
    raise EncodeError(f"bad operands for test: {dst!r}, {src!r}")


def assemble(mnemonic: str, *ops, **options) -> bytes:
    """Encode one instruction; returns its bytes.

    Options:
        prefer_imm8: for group-1 arithmetic with a small immediate, use
            the sign-extended imm8 form (default True, matches gcc).
        rm_imm_form: for ``mov reg, imm``, force the 0xc6/0xc7 r/m form
            instead of 0xb0+r/0xb8+r.
    """
    m = mnemonic.lower()

    if m in SIMPLE_OF and not ops:
        return bytes([SIMPLE_OF[m]])

    if m in ARITH_DIGIT_OF:
        return _encode_arith(m, ops[0], ops[1], options.get("prefer_imm8", True))
    if m == "mov":
        return _encode_mov(ops[0], ops[1], options.get("rm_imm_form", False))
    if m == "lea":
        dst, src = ops
        if not (_is_reg(dst, 32) and isinstance(src, Mem)):
            raise EncodeError("lea needs reg32, mem")
        return b"\x8d" + encode_modrm(dst.code, src)
    if m == "test":
        return _encode_test(ops[0], ops[1])
    if m == "xchg":
        a, b = ops
        if _is_reg(a, 32) and _is_reg(b, 32) and a.code == 0 and b.code != 0:
            return bytes([0x90 + b.code])
        if _is_reg(b, 8) and _is_rm(a, 8):
            return b"\x86" + encode_modrm(b.code, a)
        if _is_reg(b, 32) and _is_rm(a, 32):
            return b"\x87" + encode_modrm(b.code, a)
        if _is_reg(a, 32) and isinstance(b, Mem):
            return b"\x87" + encode_modrm(a.code, b)
        raise EncodeError(f"bad operands for xchg: {a!r}, {b!r}")
    if m in SHIFT_DIGIT_OF:
        return _encode_shift(m, ops[0], ops[1])

    if m == "push":
        (op,) = ops
        if _is_reg(op, 32):
            return bytes([0x50 + op.code])
        if isinstance(op, Imm):
            if op.width == 8:
                return b"\x6a" + _imm_bytes(op)
            return b"\x68" + _imm_bytes(Imm(op.signed, 32))
        if isinstance(op, Mem):
            return b"\xff" + encode_modrm(6, op)
        raise EncodeError(f"bad push operand {op!r}")
    if m == "pop":
        (op,) = ops
        if _is_reg(op, 32):
            return bytes([0x58 + op.code])
        if isinstance(op, Mem):
            return b"\x8f" + encode_modrm(0, op)
        raise EncodeError(f"bad pop operand {op!r}")
    if m == "inc":
        (op,) = ops
        if _is_reg(op, 32):
            return bytes([0x40 + op.code])
        opcode, width = (b"\xfe", 8) if _is_rm(op, 8) else (b"\xff", 32)
        return opcode + encode_modrm(0, op)
    if m == "dec":
        (op,) = ops
        if _is_reg(op, 32):
            return bytes([0x48 + op.code])
        opcode = b"\xfe" if _is_rm(op, 8) else b"\xff"
        return opcode + encode_modrm(1, op)

    if m in GRP3_DIGIT_OF:  # not/neg/mul/imul/div/idiv one-operand forms
        if m == "imul" and len(ops) >= 2:
            dst, src = ops[0], ops[1]
            if len(ops) == 3:
                imm = ops[2]
                opcode = b"\x6b" if imm.width == 8 else b"\x69"
                return opcode + encode_modrm(dst.code, src) + _imm_bytes(imm)
            return b"\x0f\xaf" + encode_modrm(dst.code, src)
        (op,) = ops
        opcode = b"\xf6" if _is_rm(op, 8) else b"\xf7"
        return opcode + encode_modrm(GRP3_DIGIT_OF[m], op)

    if m == "ret":
        if ops:
            return b"\xc2" + _u16(ops[0].value)
        return b"\xc3"
    if m == "retf":
        if ops:
            return b"\xca" + _u16(ops[0].value)
        return b"\xcb"
    if m == "int":
        return b"\xcd" + _u8(ops[0].value)

    if m == "call":
        (op,) = ops
        if isinstance(op, Rel):
            return b"\xe8" + _u32(op.offset)
        if isinstance(op, (Register, Mem)):
            return b"\xff" + encode_modrm(2, op)
        raise EncodeError(f"bad call operand {op!r}")
    if m == "jmp":
        (op,) = ops
        if isinstance(op, Rel):
            if op.width == 8:
                return b"\xeb" + _u8(op.offset)
            return b"\xe9" + _u32(op.offset)
        if isinstance(op, (Register, Mem)):
            return b"\xff" + encode_modrm(4, op)
        raise EncodeError(f"bad jmp operand {op!r}")
    if m.startswith("j") and m[1:] in CC_NAMES:
        (op,) = ops
        cc = CC_NAMES.index(m[1:])
        if op.width == 8:
            return bytes([0x70 + cc]) + _u8(op.offset)
        return bytes([0x0F, 0x80 + cc]) + _u32(op.offset)
    if m.startswith("set") and m[3:] in CC_NAMES:
        (op,) = ops
        cc = CC_NAMES.index(m[3:])
        return bytes([0x0F, 0x90 + cc]) + encode_modrm(0, op)
    if m in ("movzx", "movsx"):
        dst, src = ops
        opcode = (0xB6 if m == "movzx" else 0xBE) + (src.width == 16)
        return bytes([0x0F, opcode]) + encode_modrm(dst.code, src)

    raise EncodeError(f"unsupported mnemonic {mnemonic!r}")
