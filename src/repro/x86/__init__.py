"""IA-32 instruction-set substrate: registers, encoder, decoder, assembler.

This package implements the integer subset of IA-32 that the Parallax
reproduction needs: every encoding the corpus generator emits, every byte
pattern the rewriting rules of the paper's §IV-B exploit (``ret``/``retf``
opcodes inside immediates and jump offsets, the ``add`` opcode family
0x00–0x05), and unaligned decoding for gadget discovery.
"""

from .asm import Assembler
from .decoder import decode, decode_all
from .encoder import assemble, encode_modrm
from .errors import AssemblerError, DecodeError, EncodeError, X86Error
from .instruction import (
    CONDITIONAL_JUMPS,
    CONTROL_FLOW,
    RETURNS,
    Instruction,
)
from .opcodes import (
    GADGET_TERMINATORS,
    RET_IMM16_OPCODE,
    RET_OPCODE,
    RETF_IMM16_OPCODE,
    RETF_OPCODE,
)
from .operands import (
    Imm,
    Mem,
    Rel,
    fits_signed,
    mem8,
    mem32,
    to_signed,
    to_unsigned,
)
from .registers import (
    AH, AL, AX, BH, BL, BP, BX, CH, CL, CX, DH, DI, DL, DX,
    EAX, EBP, EBX, ECX, EDI, EDX, ESI, ESP,
    GP8, GP16, GP32, SCRATCH32, SI, SP,
    Register,
)

__all__ = [
    "Assembler", "decode", "decode_all",
    "assemble", "encode_modrm",
    "AssemblerError", "DecodeError", "EncodeError", "X86Error",
    "Instruction", "CONDITIONAL_JUMPS", "CONTROL_FLOW", "RETURNS",
    "GADGET_TERMINATORS", "RET_OPCODE", "RETF_OPCODE",
    "RET_IMM16_OPCODE", "RETF_IMM16_OPCODE",
    "Imm", "Mem", "Rel", "fits_signed", "mem8", "mem32",
    "to_signed", "to_unsigned",
    "Register", "GP8", "GP16", "GP32", "SCRATCH32",
    "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI",
    "AX", "CX", "DX", "BX", "SP", "BP", "SI", "DI",
    "AL", "CL", "DL", "BL", "AH", "CH", "DH", "BH",
]
