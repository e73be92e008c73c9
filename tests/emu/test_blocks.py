"""The superblock engine: caching, invalidation, self-modifying-code
aborts, step-budget parity and exact-step execution."""

import pytest

import repro.emu.blocks as blocks_mod
from repro.binary import BinaryImage, Perm, Section
from repro.emu import Emulator, StepLimitExceeded
from repro.x86 import Assembler, EAX, EBX, ECX, EDX, ESI, ESP, Imm, mem32

BASE = 0x1000
DATA = 0x8000


def make_image(build):
    a = Assembler(base=BASE)
    build(a)
    a.ret()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.add_section(Section(".data", DATA, bytes(256), Perm.RW))
    return img


def build_loop(a, n=50):
    a.mov(ECX, Imm(n, 32))
    a.mov(EAX, 0)
    a.label("top")
    a.add(EAX, ECX)
    a.dec(ECX)
    a.jne("top")


def call_both(img, args=(), max_steps=100_000):
    """Call BASE under both engines; assert identical observable state."""
    out = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=max_steps, engine=engine)
        value = emu.call_function(BASE, list(args))
        out.append((value, emu.steps, emu.cycles, emu.ret_mispredicts))
    assert out[0] == out[1], "engines diverged"
    return out[0]


def test_loop_matches_step_engine():
    assert call_both(make_image(build_loop))[0] == sum(range(1, 51))


def _chain_image():
    """A gadget chain dispatched from a stack pivot into .data — the
    paper's verification-chain shape, re-run so blocks are reused."""
    a = Assembler(base=BASE)
    a.mov(ESI, ESP)             # save the real stack
    a.mov(ECX, Imm(40, 32))
    a.label("top")
    a.mov(ESP, Imm(DATA, 32))   # pivot onto the prepared chain
    a.ret()                     # dispatch gadget 1
    a.label("back")             # final gadget returns here
    a.dec(ECX)
    a.jne("top")
    a.mov(ESP, ESI)             # restore the real stack
    a.mov(EAX, EBX)
    a.ret()
    a.label("g1")               # pop ebx; ret
    a.pop(EBX)
    a.ret()
    a.label("g2")               # pop edx; pop eax; ret
    a.pop(EDX)
    a.pop(EAX)
    a.ret()

    code = a.assemble()
    g1 = a.address_of("g1")
    g2 = a.address_of("g2")
    back = a.address_of("back")
    chain = b"".join(
        v.to_bytes(4, "little")
        for v in (g1, 0x11111111, g2, 0x22222222, 0x33333333,
                  g1, 0x44444444, back)
    )
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, code, Perm.RX))
    img.add_section(Section(".data", DATA, chain + bytes(64), Perm.RW))
    return img


@pytest.mark.parametrize("rotate", [False, True])
def test_gadget_chain_identical_across_engines(monkeypatch, rotate):
    # rotate=True shrinks the block cache to one entry per generation so
    # chain blocks are evicted and recompiled; parity must hold either way
    if rotate:
        monkeypatch.setattr(blocks_mod, "BLOCK_CACHE_GENERATION", 1)
    value, _, _, mispredicts = call_both(_chain_image())
    assert value == 0x44444444  # ebx after the last pop gadget
    assert mispredicts > 0  # the pivoted rets defeat the return predictor


def test_blocks_are_cached_across_calls():
    emu = Emulator(make_image(build_loop), max_steps=100_000, engine="block")
    emu.call_function(BASE)
    compiled = emu.blocks.compiled
    assert compiled >= 1
    assert emu.blocks.hits >= 1  # the loop re-enters its own body block
    emu.call_function(BASE)
    assert emu.blocks.compiled == compiled  # warm: no recompilation


def test_self_modifying_store_aborts_block():
    # Overwrite four upcoming `inc ebx` with `dec ebx` from within the
    # same straight-line block; execution must see the new bytes.
    probe = Assembler(base=BASE)
    probe.mov(EAX, Imm(0, 32))
    probe.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
    target = probe.here

    def build(a):
        a.mov(EAX, Imm(target, 32))
        a.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
        a.raw(b"\x43\x43\x43\x43")  # inc ebx x4 -> becomes dec ebx x4
        a.mov(EAX, EBX)

    img = make_image(build)
    value, _, _, _ = call_both(img)
    assert value == 0xFFFFFFFC  # the dec's ran, not the inc's

    emu = Emulator(img, max_steps=100_000, engine="block")
    emu.call_function(BASE)
    assert emu.blocks.write_aborts >= 1


def test_code_write_invalidates_cached_blocks():
    a = Assembler(base=BASE)
    build_loop(a)
    a.ret()
    a.raw(b"\xcc")  # never-executed pad byte: the tamper target
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    emu = Emulator(img, max_steps=100_000, engine="block")
    first = emu.call_function(BASE)
    compiled = emu.blocks.compiled
    # Tamper the pad byte: behaviour is unchanged, but the code page's
    # version bumps, so every block compiled over it must be dropped.
    emu.memory.write_u8(BASE + img.text.size - 1, 0x90)
    assert emu.call_function(BASE) == first
    assert emu.blocks.invalidated >= 1
    assert emu.blocks.compiled > compiled  # recompiled after the write


def test_block_cache_generations_rotate(monkeypatch):
    monkeypatch.setattr(blocks_mod, "BLOCK_CACHE_GENERATION", 1)
    img = make_image(build_loop)
    emu = Emulator(img, max_steps=100_000, engine="block")
    value = emu.call_function(BASE)
    assert value == sum(range(1, 51))
    # generation size 1 forces rotation, but old-generation promotion
    # keeps the loop blocks warm: far fewer compiles than iterations.
    assert emu.blocks.compiled < 10
    assert emu.blocks.hits > 40


def test_step_limit_parity():
    img = make_image(build_loop)
    states = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=37, engine=engine)
        with pytest.raises(StepLimitExceeded):
            emu.call_function(BASE)
        states.append((emu.steps, emu.cycles, emu.cpu.eip, list(emu.cpu.regs)))
    assert states[0] == states[1]


def test_run_steps_lands_on_exact_boundary():
    img = make_image(build_loop)
    reference = Emulator(img, max_steps=100_000, engine="step")
    reference.cpu.eip = BASE
    for _ in range(17):  # lands mid-way through the loop-body block
        reference.step()

    emu = Emulator(img, max_steps=100_000, engine="block")
    emu.cpu.eip = BASE
    emu.blocks.run_steps(17)
    assert emu.steps == reference.steps == 17
    assert emu.cpu.eip == reference.cpu.eip
    assert emu.cpu.regs == reference.cpu.regs
    assert emu.cycles == reference.cycles


def test_stack_code_is_never_cached():
    # Code on an unversioned page (the stack) has no write counter, so
    # neither the decode cache nor the block cache may retain it.
    code = Assembler(base=0x00BC_0000)
    code.mov(EAX, Imm(7, 32))
    code.ret()
    img = make_image(build_loop)
    emu = Emulator(img, max_steps=100_000, engine="block")
    assert not emu.memory.page_is_versioned(0x00BC_0000)
    emu.memory.write(0x00BC_0000, code.assemble())
    assert emu.call_function(0x00BC_0000) == 7
    compiled = emu.blocks.compiled
    assert emu.call_function(0x00BC_0000) == 7
    assert emu.blocks.compiled == compiled + 1  # recompiled, not cached


def test_decode_cache_generations_rotate(monkeypatch):
    import repro.emu.emulator as emulator_mod

    monkeypatch.setattr(emulator_mod, "DECODE_CACHE_GENERATION", 2)
    emu = Emulator(make_image(build_loop), max_steps=100_000, engine="step")
    assert emu.call_function(BASE) == sum(range(1, 51))
    assert len(emu._decode_cache) <= 2
