"""Codegen shapes the instruction mix (the Fig. 6 lever)."""

from repro.corpus import builders
from repro.ropc import compile_functions
from repro.x86 import decode_all


def _compile(wide_immediates):
    code, _, _ = compile_functions(
        [builders.range_sum()], base=0x1000, wide_immediates=wide_immediates,
        entry_main=None,
    )
    return code, decode_all(code, address=0x1000, stop_on_error=True)


def test_wide_immediates_option():
    narrow, insns_n = _compile(wide_immediates=False)
    wide, insns_w = _compile(wide_immediates=True)

    def imm32_count(insns):
        from repro.x86 import Imm
        return sum(
            1
            for i in insns
            if i.operands and isinstance(i.operands[-1], Imm)
            and i.operands[-1].width == 32
        )

    assert imm32_count(insns_w) >= imm32_count(insns_n)


def test_xor_zero_idiom():
    from repro.ropc import ir
    from repro.x86 import EAX
    f = ir.IRFunction("z", 0)
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Ret())
    code, _, _ = compile_functions([f], base=0, entry_main=None)
    assert b"\x31\xc0" in code              # xor eax, eax
    assert b"\xb8\x00\x00\x00\x00" not in code


def test_function_alignment():
    _, spans, _ = compile_functions(
        [builders.mix32(), builders.abs32()], base=0, entry_main=None,
    )
    # second function starts on a 16-byte boundary (nop padding before)
    assert spans["abs32"][0] % 16 == 0
