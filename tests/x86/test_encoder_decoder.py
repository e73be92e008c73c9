"""Encoder/decoder agreement and specific IA-32 encodings."""

import pytest

from repro.x86 import (
    AL, AX, CH, CL, CX, EAX, EBP, EBX, ECX, EDX, ESI, ESP,
    DecodeError, Imm, Mem, Rel, assemble, decode, decode_all,
    mem8, mem32,
)


def roundtrip(mnemonic, *ops, **kw):
    encoded = assemble(mnemonic, *ops, **kw)
    insn = decode(encoded, 0)
    assert insn.length == len(encoded)
    return insn


class TestSpecificEncodings:
    """Byte-exact checks against the Intel SDM."""

    def test_mov_eax_imm32_is_b8(self):
        assert assemble("mov", EAX, Imm(0x1234, 32)) == b"\xb8\x34\x12\x00\x00"

    def test_add_eax_imm8_uses_83(self):
        assert assemble("add", EAX, Imm(1, 8)) == b"\x83\xc0\x01"

    def test_add_eax_imm32_uses_05(self):
        assert assemble("add", EAX, Imm(0x100, 32)) == b"\x05\x00\x01\x00\x00"

    def test_ret_is_c3(self):
        assert assemble("ret") == b"\xc3"

    def test_retf_is_cb(self):
        assert assemble("retf") == b"\xcb"

    def test_pop_eax_is_58(self):
        assert assemble("pop", EAX) == b"\x58"

    def test_push_ebp_mov_ebp_esp(self):
        assert assemble("push", EBP) == b"\x55"
        assert assemble("mov", EBP, ESP) == b"\x89\xe5"

    def test_paper_sar_gadget_bytes(self):
        # Listing 1: sar byte [ecx+0x7], 0x8b  ==  c0 79 07 8b
        encoded = assemble("sar", mem8(ECX, disp=7), Imm(0x8B, 8))
        assert encoded == b"\xc0\x79\x07\x8b"

    def test_esp_base_requires_sib(self):
        encoded = assemble("mov", mem32(ESP), EAX)
        assert encoded == b"\x89\x04\x24"

    def test_ebp_base_requires_disp8(self):
        encoded = assemble("mov", EAX, mem32(EBP))
        assert encoded == b"\x8b\x45\x00"

    def test_int_80(self):
        assert assemble("int", Imm(0x80, 8)) == b"\xcd\x80"

    @pytest.mark.parametrize(
        "mnemonic, src, encoded",
        [
            ("movzx", CL, b"\x0f\xb6\xc1"),
            ("movzx", CX, b"\x0f\xb7\xc1"),
            ("movsx", CH, b"\x0f\xbe\xc5"),
            ("movsx", AX, b"\x0f\xbf\xc0"),
        ],
    )
    def test_movzx_movsx_encode_their_source_width(self, mnemonic, src, encoded):
        assert assemble(mnemonic, EAX, src) == encoded
        assert decode(encoded, 0).operands == (EAX, src)


class TestRoundTrips:
    CASES = [
        ("mov", (EAX, EBX)),
        ("mov", (mem32(EBX, disp=8), ECX)),
        ("mov", (CL, Imm(7, 8))),
        ("add", (ESI, Imm(0x12345678, 32))),
        ("sub", (mem32(EAX, index=ECX, scale=4, disp=-12), EDX)),
        ("xor", (EAX, EAX)),
        ("cmp", (EAX, Imm(100, 8))),
        ("test", (EAX, EBX)),
        ("lea", (ESI, Mem(base=EAX, index=EBX, scale=2, disp=0x44))),
        ("imul", (EAX, EBX)),
        ("imul", (EAX, EBX, Imm(10, 8))),
        ("shl", (EAX, Imm(5, 8))),
        ("sar", (EDX, CL)),
        ("push", (Imm(0x1000, 32),)),
        ("pop", (EBX,)),
        ("inc", (ECX,)),
        ("dec", (mem32(EAX),)),
        ("neg", (EAX,)),
        ("not", (EBX,)),
        ("movzx", (EAX, mem8(ESI))),
        ("movsx", (ECX, mem8(EDI := EBX))),
        ("xchg", (EAX, EBX)),
        ("ret", (Imm(8, 16),)),
        ("call", (EAX,)),
        ("jmp", (mem32(EBX),)),
        ("sete", (AL,)),
    ]

    @pytest.mark.parametrize("mnemonic,ops", CASES, ids=lambda v: str(v))
    def test_roundtrip(self, mnemonic, ops):
        insn = roundtrip(mnemonic, *ops)
        assert insn.mnemonic == mnemonic

    def test_rel_branches_resolve_targets(self):
        encoded = assemble("jmp", Rel(0x10, 32))
        insn = decode(encoded, 0, address=0x1000)
        assert insn.branch_target() == 0x1000 + 5 + 0x10

    def test_jcc_rel8(self):
        encoded = assemble("jne", Rel(-2, 8))
        insn = decode(encoded, 0, address=0x2000)
        assert insn.mnemonic == "jne"
        assert insn.branch_target() == 0x2000  # loops to itself


class TestDecoderRobustness:
    def test_truncated_raises(self):
        with pytest.raises(DecodeError):
            decode(b"\xb8\x01", 0)

    def test_empty_raises(self):
        with pytest.raises(DecodeError):
            decode(b"", 0)

    def test_prefixed_instruction(self):
        # rep + segment override + real instruction decodes as a unit
        insn = decode(b"\xf3\x2e\x90", 0)
        assert insn.mnemonic == "nop"
        assert insn.length == 3

    def test_operand_size_prefix_16bit(self):
        insn = decode(b"\x66\xb8\x34\x12", 0)
        assert insn.mnemonic == "mov"
        assert insn.operands[1].value == 0x1234
        assert insn.operands[0].width == 16

    def test_imm_offset_tracks_prefixes(self):
        insn = decode(b"\x66\xb8\x34\x12", 0)
        assert insn.imm_offset == 2

    def test_rep_branch_rejected(self):
        with pytest.raises(DecodeError):
            decode(b"\xf3\xc3\x90\x90", 0) and None  # rep ret is... actually allowed?

    def test_decode_all_stop_on_error(self):
        insns = decode_all(b"\x90\x90\x0f\xff", stop_on_error=True)
        assert [i.mnemonic for i in insns] == ["nop", "nop"]

    def test_decode_only_opcodes(self):
        for raw, mnemonic in [
            (b"\x27", "daa"), (b"\x9c", "pushfd"), (b"\xf8", "clc"),
            (b"\xd7", "xlat"), (b"\xaa", "stosb"),
        ]:
            assert decode(raw, 0).mnemonic == mnemonic

    def test_fpu_decodes_generic(self):
        insn = decode(b"\xd8\xc1", 0)
        assert insn.mnemonic == "fpu"

    def test_cmov(self):
        insn = decode(b"\x0f\x44\xc3", 0)
        assert insn.mnemonic == "cmove"
