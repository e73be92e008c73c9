"""Gadget discovery including unaligned decodes."""

from repro.gadgets import GadgetCatalog, GadgetKind, GadgetOp, find_gadgets_in_bytes
from repro.x86 import Assembler, EAX, EBX, ECX, Imm


def test_finds_aligned_and_unaligned():
    a = Assembler()
    # mov eax, 0x58c3xxxx hides "pop eax; ret" in the immediate
    a.mov(EAX, Imm(0x0000C358, 32))
    a.ret()
    code = a.assemble()
    gadgets = find_gadgets_in_bytes(code, base=0)
    kinds = {(g.address, g.kind.op) for g in gadgets}
    assert (1, GadgetOp.LOAD_CONST) in kinds  # unaligned pop eax; ret inside imm


def test_six_instruction_limit():
    a = Assembler()
    for _ in range(8):
        a.nop()
    a.ret()
    gadgets = find_gadgets_in_bytes(a.assemble(), base=0)
    starts = {g.address for g in gadgets}
    assert 3 in starts      # 5 nops + ret = 6 insns
    assert 0 not in starts  # 8 nops + ret > 6 insns


def test_far_gadgets_found():
    a = Assembler()
    a.pop(EAX); a.retf()
    code = a.assemble()
    assert any(g.far for g in find_gadgets_in_bytes(code, base=0))


def test_catalog_prefers_overlapping():
    a = Assembler()
    a.label("g1"); a.pop(EAX); a.ret()
    a.label("g2"); a.pop(EAX); a.ret()
    code = a.assemble()
    catalog = GadgetCatalog(find_gadgets_in_bytes(code, base=0x100))
    kind = GadgetKind(GadgetOp.LOAD_CONST, dst=EAX)
    assert len(catalog.of_kind(kind)) == 2
    catalog.mark_preferred(0x102)  # the second one overlaps a target
    assert catalog.best(kind).address == 0x102


def test_catalog_capabilities():
    a = Assembler()
    a.pop(EAX); a.ret()
    a.pop(EBX); a.ret()
    a.mov(EBX, EAX); a.ret()
    catalog = GadgetCatalog(find_gadgets_in_bytes(a.assemble(), base=0))
    regs = {r.name for r in catalog.load_const_regs()}
    assert {"eax", "ebx"} <= regs
    assert catalog.has(GadgetKind(GadgetOp.MOV_REG, dst=EBX, src=EAX))
    assert not catalog.has(GadgetKind(GadgetOp.MOV_REG, dst=EAX, src=EBX))
    assert catalog.count_by_op()[GadgetOp.LOAD_CONST] >= 2
