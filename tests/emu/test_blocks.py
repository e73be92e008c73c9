"""The superblock engine: caching, invalidation, self-modifying-code
aborts, step-budget parity, exact-step execution, tiering and
self-loop superblocks."""

import gc
import inspect
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.emu.blocks as blocks_mod
import repro.emu.dispatch as dispatch
import repro.emu.syscalls as syscalls
from repro.binary import BinaryImage, Perm, Section
from repro.emu import (
    CALL_SENTINEL, ENGINES, Emulator, StepLimitExceeded, run_image,
)
from repro.x86 import (
    AH, AL, AX, Assembler, BH, BL, CL, CX, DH, DX, EAX, EBP, EBX, ECX, EDI,
    EDX, ESI, ESP, Imm, Mem, SI, mem8, mem32,
)

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
    """Call BASE under both engines; assert identical observable state,
    flags included.  Returns (eax, steps, cycles, ret_mispredicts)."""
    out = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=max_steps, engine=engine)
        value = emu.call_function(BASE, list(args))
        out.append(
            ((value, emu.steps, emu.cycles, emu.ret_mispredicts), emu.cpu.snapshot())
        )
    assert out[0] == out[1], "engines diverged"
    return out[0][0]


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


def test_self_modifying_store_aborts_block(monkeypatch):
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
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


def test_self_modifying_push_aborts_block(monkeypatch):
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    # The same overwrite through a push, with esp pivoted just past the
    # upcoming `inc ebx` bytes.
    def prefix(a, target):
        a.mov(ESI, ESP)
        a.mov(ESP, Imm(target + 4, 32))
        a.push(Imm(0x4B4B4B4B, 32))

    probe = Assembler(base=BASE)
    prefix(probe, 0)
    target = probe.here

    def build(a):
        prefix(a, target)
        a.raw(b"\x43\x43\x43\x43")  # inc ebx x4 -> becomes dec ebx x4
        a.mov(ESP, ESI)
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
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
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
    advance(emu, 17)
    assert emu.steps == reference.steps == 17
    assert emu.cpu.eip == reference.cpu.eip
    assert emu.cpu.regs == reference.cpu.regs
    assert emu.cycles == reference.cycles


def test_advance_stops_inside_a_hot_block_like_the_step_engine():
    """``stop`` first reached inside a block compiled before: the block
    engine must stop there too, not run the block through it."""
    a = Assembler(base=BASE)
    a.mov(ECX, Imm(40, 32))
    a.mov(EAX, 0)
    a.label("top")
    a.dec(ECX)
    a.cmp(ECX, Imm(3, 32))
    a.ja("top")                 # taken 36 times: "top" turns hot
    a.label("late")             # falls through only once ecx == 3
    a.inc(EAX)
    a.test(ECX, ECX)
    a.jne("top")
    a.ret()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    states = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=100_000, engine=engine)
        emu.cpu.eip = BASE
        assert emu.advance(stop=a.address_of("late"))
        states.append((emu.steps, emu.cycles, emu.cpu.eip, list(emu.cpu.regs)))
        assert emu.advance(steps=5)
        states.append((emu.steps, emu.cycles, emu.cpu.eip, list(emu.cpu.regs)))
    assert emu.blocks.compiled > 0
    assert states[0] == states[2] and states[1] == states[3]
    assert states[0][2] == a.address_of("late")


@pytest.mark.parametrize("engine", ["step", "block"])
def test_stack_code_is_cached_and_invalidated(monkeypatch, engine):
    """Code on the stack is cached like any other code, and a store
    into it makes the next call run the new bytes."""
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    stack_code = 0x00BC_0000

    def returns(value):
        code = Assembler(base=stack_code)
        code.mov(EAX, Imm(value, 32))
        code.ret()
        return code.assemble()

    emu = Emulator(make_image(build_loop), max_steps=100_000, engine=engine)
    emu.memory.write(stack_code, returns(7))
    assert emu.call_function(stack_code) == 7
    assert stack_code in emu._decode_cache
    compiled = emu.blocks.compiled if engine == "block" else None
    assert emu.call_function(stack_code) == 7
    if engine == "block":
        assert emu.blocks.compiled == compiled  # cached, not recompiled
    emu.memory.write(stack_code, returns(9))
    assert emu.call_function(stack_code) == 9


def test_decode_cache_generations_rotate(monkeypatch):
    import repro.emu.emulator as emulator_mod

    monkeypatch.setattr(emulator_mod, "DECODE_CACHE_GENERATION", 2)
    emu = Emulator(make_image(build_loop), max_steps=100_000, engine="step")
    assert emu.call_function(BASE) == sum(range(1, 51))
    assert len(emu._decode_cache) <= 2


# ----------------------------------------------------------------------
# Tiering and self-loop superblocks
# ----------------------------------------------------------------------

#: Store targets of ``self_loop_image``: the loop's own code page
#: (outside its bytes) and the next page of the same code segment.
OWN_PAGE = BASE + 0x800
NEXT_PAGE = BASE + 0x1000


def self_loop_image(n=50, body=None):
    """A counted loop whose body block ends in a jmp to its own start.

    Returns the image and the addresses of the loop start and its add.
    """
    a = Assembler(base=BASE)
    a.mov(ECX, Imm(n, 32))
    a.mov(EAX, 0)
    a.label("top")
    a.cmp(ECX, Imm(0, 32))
    a.je("done")
    a.label("add")
    a.add(EAX, ECX)
    if body is not None:
        body(a)
    a.dec(ECX)
    a.jmp("top")
    a.label("done")
    a.ret()
    a.pad_to(OWN_PAGE - BASE)
    a.raw(bytes(16))
    a.pad_to(NEXT_PAGE - BASE)
    a.raw(bytes(16))
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RWX))
    img.add_section(Section(".data", DATA, bytes(256), Perm.RW))
    return img, a.address_of("top"), a.address_of("add")


def state(emu):
    """Steps, cycles and the architectural state: registers, eip, flags."""
    return (emu.steps, emu.cycles, emu.cpu.snapshot())


def advance(emu, n):
    assert emu.advance(steps=n)


@pytest.mark.parametrize("max_steps", range(150, 155))
def test_budget_expires_mid_self_loop(max_steps):
    # the loop compiles at its 16th dispatch (step ~83) and then
    # iterates in its function; each budget lands on a different
    # instruction of a five-instruction iteration
    img, _, _ = self_loop_image()
    outcomes = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=max_steps, engine=engine)
        with pytest.raises(StepLimitExceeded) as exc:
            emu.call_function(BASE)
        outcomes.append((state(emu), exc.value.eip))
    assert outcomes[0] == outcomes[1]
    assert emu.blocks.hits > 0  # the limit stopped an in-function loop


def test_run_steps_lands_mid_self_loop():
    img, _, _ = self_loop_image()
    reference = Emulator(img, max_steps=100_000, engine="step")
    emu = Emulator(img, max_steps=100_000, engine="block")
    reference.cpu.eip = emu.cpu.eip = BASE
    for n in (83, 1, 7, 13, 4, 11, 26):
        advance(reference, n)
        advance(emu, n)
        assert state(emu) == state(reference)
    assert emu.blocks.hits > 0


def test_self_loop_returns_with_its_pending_flags():
    # Every iteration leaves CF = (ecx odd) pending from the neg, which
    # the dec keeps; however a pause falls into an iteration, the loop
    # must store it when it returns to the dispatcher.
    def body(a):
        a.mov(EDX, ECX)
        a.and_(EDX, Imm(1, 32))
        a.neg(EDX)

    img, _, _ = self_loop_image(body=body)
    reference = Emulator(img, max_steps=100_000, engine="step")
    emu = Emulator(img, max_steps=100_000, engine="block")
    reference.cpu.eip = emu.cpu.eip = BASE
    # eight-step iterations, compiled from about step 122 on; the
    # pauses after that land on every offset into an iteration
    for n in (130, *range(8, 17)):
        advance(reference, n)
        advance(emu, n)
        assert state(emu) == state(reference)
    assert emu.blocks.hits > 0


@pytest.mark.parametrize(
    "target, invalidates", [(OWN_PAGE, True), (NEXT_PAGE, False)]
)
def test_store_to_code_pages_ends_or_revalidates_the_loop(target, invalidates):
    # Every iteration stores to a code-bearing page outside the loop's
    # bytes.  On the loop's own page the iteration returns to the
    # dispatcher, which drops the block; on another page of the segment
    # the loop revalidates its own page version and keeps iterating.
    def body(a):
        a.mov(EDI, Imm(target, 32))
        a.mov(mem32(EDI), ECX)

    img, _, _ = self_loop_image(body=body)
    assert call_both(img)[0] == sum(range(1, 51))
    emu = Emulator(img, max_steps=100_000, engine="block")
    emu.call_function(BASE)
    be = emu.blocks
    assert be.write_aborts == 0  # never inside the block's own bytes
    assert be.hits == be.epoch_hits + be.page_revalidations
    iterations = 50 - blocks_mod.HOT_THRESHOLD  # compiled, full
    if invalidates:
        assert be.invalidated == iterations
        assert be.hits == 0
    else:
        assert be.invalidated == 0
        assert be.page_revalidations == iterations


def test_code_view_patch_between_run_steps():
    # A Wurster patch turns the loop's add into a sub while the loop is
    # compiled: the next run_steps must drop the block and see it.
    img, _, add = self_loop_image()
    states = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=100_000, engine=engine)
        emu.cpu.eip = BASE
        advance(emu, 120)
        assert emu.memory.read(add, 1) == b"\x01"  # add r/m32, r32
        emu.memory.patch_code_view(add, b"\x29")  # sub r/m32, r32
        advance(emu, 100)
        states.append(state(emu))
    assert states[0] == states[1]
    assert emu.blocks.invalidated >= 1


def test_self_loop_reports_its_iterations_once_per_exit():
    img, top, _ = self_loop_image()
    calls = []
    emu = Emulator(img, max_steps=100_000, engine="block")
    emu.add_observer(lambda block, count, times: calls.append((block, count, times)))
    emu.call_function(BASE)
    looped = [
        (count, times)
        for block, count, times in calls
        if block.compiled and block.start == top
    ]
    # 51 passes through `top`: the entry's dispatch and the next
    # HOT_THRESHOLD - 1 run interpreted, the rest in the compiled loop.
    # Its full iterations arrive in one call when it exits, followed by
    # the last pass, which leaves through the je after two instructions.
    iterations = 50 - blocks_mod.HOT_THRESHOLD
    assert looped == [(5, iterations), (2, 1)]
    assert sum(count * times for _, count, times in calls) == emu.steps
    assert emu.blocks.hits == iterations  # every re-entry is a hit


def test_cold_code_runs_interpreted():
    img, top, _ = self_loop_image(n=blocks_mod.HOT_THRESHOLD - 2)
    emu = Emulator(img, max_steps=100_000, engine="block")
    assert emu.call_function(BASE) == sum(range(blocks_mod.HOT_THRESHOLD - 1))
    assert emu.blocks.compiled == 0
    img, top, _ = self_loop_image(n=blocks_mod.HOT_THRESHOLD)
    emu = Emulator(img, max_steps=100_000, engine="block")
    emu.call_function(BASE)
    assert top in emu.blocks._cache


@pytest.mark.parametrize("threshold", [1, blocks_mod.HOT_THRESHOLD])
def test_hit_tiers_add_up_after_run_and_run_steps(
    monkeypatch, small_gzip, threshold
):
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", threshold)
    emu = Emulator(small_gzip.image, max_steps=10_000_000, engine="block")
    be = emu.blocks
    advance(emu, 200_000)
    assert emu.steps == 200_000
    assert be.compiled > 0 and be.hits > 0
    assert be.hits == be.epoch_hits + be.page_revalidations
    assert not emu.run().crashed
    assert be.hits == be.epoch_hits + be.page_revalidations


def _run_tracked(monkeypatch, image, engine, max_steps):
    """Run ``image`` with the cyclic GC off; return the result and
    whether its emulator is still alive while the result is held."""
    refs = []
    run = Emulator.run

    def tracked(self):
        refs.append(weakref.ref(self))
        return run(self)

    monkeypatch.setattr(Emulator, "run", tracked)
    gc.disable()
    try:
        result = run_image(image, max_steps=max_steps, engine=engine)
        alive = refs[0]() is not None
    finally:
        gc.enable()
    return result, alive


def test_finished_emulator_is_freed_without_a_collection(monkeypatch, small_gzip):
    # The block engine refers back to its emulator weakly, so a finished
    # run frees the emulator (stack, caches, compiled blocks) at once.
    result, alive = _run_tracked(
        monkeypatch, small_gzip.image, "block", 10_000_000
    )
    assert not result.crashed
    assert not alive


@pytest.mark.parametrize("engine", ENGINES)
def test_crashed_emulator_is_freed_without_a_collection(monkeypatch, engine):
    # The fault a RunResult keeps must not hold the emulator alive
    # through the frames of its traceback.
    a = Assembler(base=BASE)
    a.mov(EAX, mem32(disp=0))  # unmapped: BadMemoryAccess
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.entry = BASE
    result, alive = _run_tracked(monkeypatch, img, engine, 100)
    assert type(result.fault).__name__ == "BadMemoryAccess"
    assert not alive


# ----------------------------------------------------------------------
# Deferred flags: flags reach the CPU only where execution leaves the
# generated code, and that never changes what is observable
# ----------------------------------------------------------------------

#: Never mapped: a load from it faults.
UNMAPPED = 0x0050_0000

_REGS = (EAX, EBX, ECX, EDX, ESI)
_NARROW = (AL, CL, BL, AH, DH, BH, AX, CX, DX, SI)
_BINARY = ("add", "adc", "sub", "sbb", "cmp", "and", "or", "xor", "test")
_UNARY = ("inc", "dec", "neg", "not")
_SHIFTS = ("shl", "shr", "sar")
_CCS = ("e", "ne", "b", "ae", "l", "ge", "le", "g", "s", "o", "be", "a")

_binary_insn = st.tuples(
    st.sampled_from(_BINARY), st.sampled_from(_REGS),
    st.one_of(st.sampled_from(_REGS), st.integers(0, 2**32 - 1)),
)
_alu_insn = st.one_of(
    _binary_insn, _binary_insn, _binary_insn,  # mostly flag writers
    st.tuples(st.sampled_from(_UNARY), st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(_SHIFTS), st.sampled_from(_REGS), st.integers(0, 31)),
    st.tuples(  # 8- and 16-bit register sources
        st.sampled_from(("movzx", "movsx")), st.sampled_from(_REGS),
        st.sampled_from(_NARROW),
    ),
    st.tuples(st.just("set"), st.sampled_from(_CCS)),  # generic: reads flags
    st.tuples(st.just("j"), st.sampled_from(_CCS)),  # side exit
    st.tuples(st.just("load"), st.sampled_from(_REGS)),  # can fault
    # dword stores into .data, where the loads read
    st.tuples(st.just("store"), st.sampled_from(_REGS), st.sampled_from((0, 4, 8))),
    # a balanced push/pop pair
    st.tuples(st.just("pushpop"), st.sampled_from(_REGS), st.sampled_from(_REGS)),
    # generic handlers that read and write whole registers
    st.tuples(
        st.sampled_from(("xchg", "imul")), st.sampled_from(_REGS),
        st.sampled_from(_REGS),
    ),
)


def _emit_alu(a, program):
    for insn in program:
        m = insn[0]
        if m in _BINARY:
            src = Imm(insn[2], 32) if isinstance(insn[2], int) else insn[2]
            a.emit(m, insn[1], src)
        elif m in _UNARY:
            a.emit(m, insn[1])
        elif m in _SHIFTS:
            a.emit(m, insn[1], Imm(insn[2], 8))
        elif m in ("movzx", "movsx"):
            a.emit(m, insn[1], insn[2])
        elif m == "set":
            a.emit("set" + insn[1], AL)
        elif m == "j":
            a.emit("j" + insn[1], "out")
        elif m == "fault":
            a.mov(insn[1], mem32(disp=UNMAPPED))
        elif m == "store":
            a.mov(mem32(disp=DATA + insn[2]), insn[1])
        elif m == "pushpop":
            a.push(insn[1])
            a.pop(insn[2])
        elif m in ("xchg", "imul"):
            a.emit(m, insn[1], insn[2])
        else:
            a.mov(insn[1], mem32(disp=DATA))


def _alu_image(seeds, program, loop_split=None):
    """Seed the registers, then run ``program`` once; or, with
    ``loop_split``, as the body of a self-loop of six iterations whose
    counter exit (on edi) sits at that index of the program."""
    a = Assembler(base=BASE)
    for reg, value in zip(_REGS, seeds):
        a.mov(reg, Imm(value, 32))
    if loop_split is None:
        _emit_alu(a, program)
    else:
        a.mov(EDI, Imm(6, 32))
        a.label("top")
        _emit_alu(a, program[:loop_split])
        a.dec(EDI)
        a.je("out")
        _emit_alu(a, program[loop_split:])
        a.jmp("top")
    a.label("out")
    a.ret()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.add_section(Section(".data", DATA, bytes(range(256)), Perm.RW))
    return img


def _paused_states(img, engine, pauses):
    """Call BASE on ``engine``, pausing after each of ``pauses`` steps;
    the state at every pause, then how the run ended."""
    emu = Emulator(img, max_steps=10_000, engine=engine)
    emu.push(CALL_SENTINEL)
    emu.cpu.eip = BASE
    states = []
    for steps in pauses:
        emu.advance(steps=steps)
        states.append(state(emu))
        if engine == "block":
            be = emu.blocks
            assert be.hits == be.epoch_hits + be.page_revalidations
    # returning to the sentinel ends the run with a BadFetch there
    fault = emu.run().fault
    states.append(
        (state(emu), emu.ret_mispredicts, type(fault).__name__, str(fault), fault.eip)
    )
    return states


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=5, max_size=5),
    program=st.lists(_alu_insn, min_size=1, max_size=24),
    fault_at=st.one_of(st.none(), st.integers(0, 24)),
    loop=st.booleans(),
    loop_split=st.integers(0, 24),
    pauses=st.lists(st.integers(1, 40), max_size=6),
)
@example(  # a carry chain: adc must read the shr's CF
    seeds=[0] * 5,
    program=[("add", ECX, 1), ("shr", ECX, 1), ("adc", EAX, EAX)],
    fault_at=None, loop=False, loop_split=0, pauses=[],
)
@example(  # the loop head's adc reads the CF the tail's add left
    # pending, and the add carries on every other iteration
    seeds=[1, 2, 0x80000000, 0x80000000, 5],
    program=[("adc", EAX, EBX), ("add", ECX, EDX)],
    fault_at=None, loop=True, loop_split=1, pauses=[],
)
def test_flag_liveness_keeps_flags_exact(
    monkeypatch, seeds, program, fault_at, loop, loop_split, pauses
):
    # Random ALU blocks with flag readers (adc/sbb, setcc), side exits,
    # loads that can fault and, at ``fault_at``, one that does, stores,
    # push/pop pairs and generic handlers, run straight and as a
    # self-loop (with and without a store in its body), paused at drawn
    # step counts.  At every pause and at the end, registers, flags,
    # eip, steps and cycles must match the step engine with every block
    # compiled.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    if fault_at is not None:
        program = program[:fault_at] + [("fault", EAX)] + program[fault_at:]
    img = _alu_image(seeds, program, min(loop_split, len(program)) if loop else None)
    assert _paused_states(img, "block", pauses) == _paused_states(
        img, "step", pauses
    )


@pytest.mark.parametrize("store", ["mov", "push"])
def test_self_modifying_store_abort_stores_pending_flags(monkeypatch, store):
    # The store that aborts the block leaves the sub's flags pending;
    # the dec's that run after it keep its CF.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)

    def prefix(a, target):
        a.mov(ECX, Imm(5, 32))
        a.sub(ECX, Imm(7, 32))  # borrows: CF and SF set
        if store == "mov":
            a.mov(EAX, Imm(target, 32))
            a.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
        else:
            a.mov(ESI, ESP)
            a.mov(ESP, Imm(target + 4, 32))
            a.push(Imm(0x4B4B4B4B, 32))

    probe = Assembler(base=BASE)
    prefix(probe, 0)
    target = probe.here

    def build(a):
        prefix(a, target)
        a.raw(b"\x43\x43\x43\x43")  # inc ebx x4 -> becomes dec ebx x4
        if store == "push":
            a.mov(ESP, ESI)
        a.mov(EAX, EBX)

    img = make_image(build)
    assert call_both(img)[0] == 0xFFFFFFFC  # flags compared too
    emu = Emulator(img, max_steps=100_000, engine="block")
    emu.call_function(BASE)
    assert emu.blocks.write_aborts == 1
    assert emu.cpu.cf  # the sub's borrow, stored when the block aborted


@pytest.mark.parametrize("access", ["push", "pop", "ret"])
def test_faulting_stack_access_sees_pending_flags(monkeypatch, access):
    # The stack accesses the step engine does not eip-wrap store the
    # flags left pending before them when they fault.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    a = Assembler(base=BASE)
    a.mov(ECX, Imm(5, 32))
    a.mov(ESP, Imm(UNMAPPED, 32))
    a.sub(ECX, Imm(7, 32))  # borrows: CF and SF set
    a.emit(access, *([] if access == "ret" else [EAX]))
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    outcomes = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=100, engine=engine)
        emu.cpu.eip = BASE
        fault = emu.run().fault
        outcomes.append((state(emu), type(fault).__name__, fault.eip))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][1] == "BadMemoryAccess"
    assert outcomes[1][0][2]["flags"]["cf"]


@pytest.mark.parametrize("misalign", [0, 2])
@pytest.mark.parametrize("access", ["load", "pop"])
def test_self_loop_access_walks_off_its_segment(access, misalign):
    # A compiled self-loop whose first instruction steps 4 bytes per
    # iteration off the end of .data's page in iteration 40 (straddling
    # the end when misaligned): an inline load, or a generic ``pop`` to
    # memory, which moves esp before its store faults.  Registers,
    # flags, eip, steps, cycles and the RunResult must be exactly the
    # step engine's.
    iterations = 40
    a = Assembler(base=BASE)
    a.mov(ESI, Imm(DATA + 0x1000 - 4 * (iterations - 1) - misalign, 32))
    a.mov(ECX, Imm(0, 32))
    a.mov(EBX, Imm(7, 32))
    if access == "pop":
        a.push(ECX)
    a.label("top")
    if access == "load":
        a.mov(EDX, mem32(ESI))
    else:
        a.pop(mem32(ESI))
        a.push(ECX)
    a.add(ESI, Imm(4, 32))
    a.inc(ECX)
    a.add(EBX, ECX)  # its flags are live into the next iteration
    a.jmp("top")
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.add_section(Section(".data", DATA, bytes(range(256)) * 16, Perm.RW))
    img.entry = BASE
    outcomes = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=100_000, engine=engine)
        result = emu.run()
        outcomes.append((
            state(emu),
            (result.exit_status, result.steps, result.cycles, result.stdout),
            (type(result.fault).__name__, str(result.fault), result.fault.eip),
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0][2]["regs"][ECX.code] == iterations - 1
    assert outcomes[1][2][0] == "BadMemoryAccess"
    assert emu.blocks.hits > 0  # the fault came from the compiled loop


# ----------------------------------------------------------------------
# Per-site segment locals in self-loops, and eip stored only where
# execution leaves the generated code
# ----------------------------------------------------------------------

#: A second data segment, past an unmapped page after .data's one.
DATA2 = DATA + 0x2000
#: Where the table-driven loops below read their (address[, value])
#: entries: past .data's first 256 bytes, which their stores may write.
TABLE = DATA + 0x800


def _table_image(code, entries, stores_to_code=False):
    """``code(a)`` then ``ret``, with ``entries`` (dwords) at TABLE in
    a one-page .data, and DATA2 a page of another pattern.  With
    ``stores_to_code`` .text is writable and spans two pages, the
    second starting at NEXT_PAGE."""
    a = Assembler(base=BASE)
    code(a)
    a.ret()
    if stores_to_code:
        a.pad_to(OWN_PAGE - BASE)
        a.raw(bytes(16))
        a.pad_to(NEXT_PAGE - BASE)
        a.raw(bytes(16))
    data = bytearray(bytes(range(256)) * 16)
    table = b"".join(e.to_bytes(4, "little") for e in entries)
    data[TABLE - DATA:TABLE - DATA + len(table)] = table
    img = BinaryImage("t")
    img.add_section(Section(
        ".text", BASE, a.assemble(), Perm.RWX if stores_to_code else Perm.RX
    ))
    img.add_section(Section(".data", DATA, bytes(data), Perm.RW))
    img.add_section(Section(
        ".data2", DATA2, bytes(255 - i for i in range(256)) * 16, Perm.RW
    ))
    return img


def _store_walk(count, generic=False):
    """A self-loop of ``count`` iterations storing each table pair's
    value (second dword) to its address (first dword).  Its ``add``
    sits right after the store: a store of ``_sub_patch()`` there makes
    it a ``sub`` for the iterations after.  ``generic`` adds a generic
    handler, which stores eip, to the body."""
    def code(a):
        a.mov(ESI, Imm(TABLE, 32))
        a.mov(ECX, Imm(count, 32))
        a.mov(EAX, Imm(0, 32))
        a.label("top")
        a.cmp(ECX, Imm(0, 32))
        a.je("done")
        a.mov(EDI, mem32(ESI))
        a.mov(EDX, mem32(ESI, disp=4))
        a.add(ESI, Imm(8, 32))
        a.mov(mem32(EDI), EDX)
        a.label("add")
        a.add(EAX, ECX)
        if generic:
            a.emit("imul", EAX, EDX)
        a.dec(ECX)
        a.jmp("top")
        a.label("done")
    return code


def _sub_patch():
    """The address of the store loop's ``add`` and the dword that turns
    it into a ``sub`` (the dec and jmp opcode after it kept)."""
    probe = Assembler(base=BASE)
    _store_walk(1)(probe)
    add = probe.address_of("add")
    raw = bytearray(probe.assemble()[add - BASE:add - BASE + 4])
    assert raw[0] == 0x01  # add r/m32, r32
    raw[0] = 0x29  # sub r/m32, r32
    return add, int.from_bytes(raw, "little")


@pytest.mark.parametrize("walk", ["own_bytes", "own_page", "next_page"])
def test_self_loop_store_walks_from_data_into_code(monkeypatch, walk):
    # The loop's store site caches .data's segment, then its pointer
    # leaves .data for the code segment: the cached-segment miss must
    # still bump the code's page versions and end the loop where the
    # step engine would re-decode.  Into the loop's own bytes it aborts
    # after the store; on its own page, outside its bytes, the loop
    # returns and the dispatcher drops it; on the next page it
    # revalidates and iterates on, until a store into its own bytes,
    # which a site that had cached the code segment would miss.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    add, patch = _sub_patch()
    code_stores = {
        "own_bytes": [(add, patch)],
        "own_page": [(OWN_PAGE, 0x11223344)],
        "next_page": [(NEXT_PAGE, 0x11223344), (add, patch)],
    }[walk]
    pairs = [(DATA, 1), (DATA + 8, 2), (DATA + 16, 3), *code_stores,
             (DATA + 24, 4), (DATA + 40, 6)]
    entries = [word for pair in pairs for word in pair]
    img = _table_image(_store_walk(len(pairs)), entries, stores_to_code=True)
    assert _paused_states(img, "block", [9, 14, 20]) == _paused_states(
        img, "step", [9, 14, 20]
    )
    emu = Emulator(img, max_steps=10_000, engine="block")
    expected = call_both(img)[0]
    emu.call_function(BASE)
    assert emu.cpu.eax == expected
    be = emu.blocks
    if walk == "own_page":
        assert be.write_aborts == 0 and be.invalidated >= 1
    else:
        assert be.write_aborts == 1
    if walk == "next_page":
        assert be.page_revalidations >= 1


def _load_walk(count, width):
    """A self-loop of ``count`` iterations summing into ebx the
    ``width``-bit value at each table address (an inline load site
    whose pointer moves between segments)."""
    def code(a):
        a.mov(ESI, Imm(TABLE, 32))
        a.mov(ECX, Imm(count, 32))
        a.mov(EBX, Imm(0, 32))
        a.label("top")
        a.cmp(ECX, Imm(0, 32))
        a.je("done")
        a.mov(EDI, mem32(ESI))
        a.add(ESI, Imm(4, 32))
        if width == 32:
            a.mov(EDX, mem32(EDI))
        else:
            a.emit("movzx", EDX, Mem(EDI, width=width))
        a.add(EBX, EDX)
        a.dec(ECX)
        a.jmp("top")
        a.label("done")
        a.mov(EAX, EBX)
    return code


@pytest.mark.parametrize("faults", [False, True])
@pytest.mark.parametrize("width", [8, 16, 32])
def test_self_loop_load_crosses_segments(monkeypatch, width, faults):
    # One load site reads .data, .data2 above it, .data again, and the
    # last offsets of each at which the access still fits (where a
    # narrower access's cached limit matters); with ``faults`` its last
    # address, right after two in .data2, runs off .data2's end
    # (straddling it, for 16 and 32 bits).
    # Every value it reads reaches ebx; registers, flags, eip, steps,
    # cycles and the fault must be the step engine's at every pause.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    size = width // 8
    addresses = [
        DATA + 4, DATA2 + 8, DATA + 12, DATA2 + 0x1000 - size, DATA + 1,
        DATA + 0x1000 - size, DATA + 0x123, DATA2 + 2, DATA2 + 0x41,
    ]
    if faults:
        addresses.append(DATA2 + 0x1000 - size + 1)
    img = _table_image(_load_walk(len(addresses), width), addresses)
    pauses = [11, 5, 8, 3, 17]
    block = _paused_states(img, "block", pauses)
    assert block == _paused_states(img, "step", pauses)
    fault_name = block[-1][2]
    if faults:
        assert fault_name == "BadMemoryAccess"
    else:
        assert fault_name == "BadFetch"  # returned to the sentinel


@pytest.mark.parametrize("faults", [False, True])
@pytest.mark.parametrize(
    "access", ["load", "store", "movzx", "add", "push", "pop"]
)
def test_block_ending_in_an_inline_access(monkeypatch, access, faults):
    # The access is the 64th instruction, so the block ends after it
    # (MAX_BLOCK_INSNS) and must store eip itself; faulting, its fault
    # path stores eip and the flags the sub left pending.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    a = Assembler(base=BASE)
    a.mov(EBP, ESP)
    a.mov(ESI, Imm(UNMAPPED if faults else DATA + 8, 32))
    a.sub(ECX, Imm(7, 32))  # borrows: CF and SF pending
    prefix = 3
    if access in ("push", "pop"):
        top = UNMAPPED + (4 if access == "push" else 0)
        a.mov(ESP, Imm(top if faults else DATA + 0x40, 32))
        prefix += 1
    for _ in range(blocks_mod.MAX_BLOCK_INSNS - 1 - prefix):
        a.nop()
    {
        "load": lambda: a.mov(EAX, mem32(ESI)),
        "store": lambda: a.mov(mem32(ESI), ECX),
        "movzx": lambda: a.emit("movzx", EAX, mem8(ESI, disp=3)),
        "add": lambda: a.add(EAX, mem32(ESI)),
        "push": lambda: a.push(ECX),
        "pop": lambda: a.pop(EAX),
    }[access]()
    a.mov(EBX, EAX)
    a.mov(ESP, EBP)
    a.ret()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.add_section(Section(".data", DATA, bytes(range(256)), Perm.RW))
    pauses = [blocks_mod.MAX_BLOCK_INSNS, 1]
    block = _paused_states(img, "block", pauses)
    assert block == _paused_states(img, "step", pauses)
    emu = Emulator(img, max_steps=100, engine="block")
    emu.push(CALL_SENTINEL)
    emu.cpu.eip = BASE
    emu.advance(steps=blocks_mod.MAX_BLOCK_INSNS)
    assert emu.blocks.compiled == 1  # the whole prefix ran as one block
    assert block[-1][2] == ("BadMemoryAccess" if faults else "BadFetch")


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("offset", range(10))
def test_memory_self_loop_left_by_budget_and_advance(
    monkeypatch, offset, generic
):
    # A self-loop with two cached load sites and a cached store site,
    # and perhaps a generic handler, which leaves eip at its own next
    # instruction: stopped by the step budget and paused by
    # advance(steps=) at each offset into an iteration, eip (stored only
    # at the loop's exits), registers, flags, steps and cycles exact.
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    pairs = [(DATA + 4 * k, k * 0x01010101) for k in range(40)]
    entries = [word for pair in pairs for word in pair]
    img = _table_image(_store_walk(len(pairs), generic), entries)
    budget = 60 + offset
    outcomes = []
    for engine in ("step", "block"):
        emu = Emulator(img, max_steps=budget, engine=engine)
        with pytest.raises(StepLimitExceeded) as exc:
            emu.call_function(BASE)
        outcomes.append((state(emu), exc.value.eip))
    assert outcomes[0] == outcomes[1]
    pauses = [40 + offset, 9, 9 + offset, 4]
    assert _paused_states(img, "block", pauses) == _paused_states(
        img, "step", pauses
    )


def test_generic_handlers_neither_map_nor_decode():
    # A self-loop's segment locals stay valid for one entry because the
    # segment table changes only in Memory.map and ``holds_code`` only
    # when code is decoded; no handler a loop body can call does either.
    for module in (dispatch, syscalls):
        source = inspect.getsource(module)
        for call in (".map(", "claim_code", "_fetch_decode", "fetch("):
            assert call not in source, (module.__name__, call)
