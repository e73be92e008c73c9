"""Differential property: the compiled block engine is observationally
identical to the reference step interpreter.

Randomly generated corpus programs (and their protected variants) must
produce the exact same ``RunResult`` — exit status, step count, cycle
count, stdout bytes and fault — under all engines in
:data:`repro.emu.ENGINES` (step, block).  The adversarial cases ride
along: the Wurster code-view overlay and mid-run tamper/restore of
mapped code, both of which must invalidate any superblocks compiled
over the affected bytes.
"""

from hypothesis import example, given, settings, strategies as st

import repro.emu.blocks as blocks

from repro.attacks.patching import corrupt_byte
from repro.core import Parallax, ProtectConfig
from repro.corpus import builders
from repro.corpus.generator import FunctionGenerator, MixProfile
from repro.corpus.program import (
    DATA_BASE,
    DataBuilder,
    Program,
    RODATA_BASE,
    call_const,
)
from repro.emu import ENGINES, Emulator, TamperWatch
from repro.ropc import ir
from repro.x86.registers import EAX, EBX, ECX, EDI, EDX, ESI

MAX_STEPS = 2_000_000


def _make_program(seed: int, fillers: int = 5) -> Program:
    """A small random program in the corpus shape: a counted main loop
    over seeded filler functions plus a chain-translatable digest."""
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    profile = MixProfile(functions=fillers, call_density=0.4, size=(3, 7))
    generated = FunctionGenerator(profile, scratch, seed).generate("rnd")

    main = ir.IRFunction("main", params=0)
    main.emit(ir.Const(ESI, (seed & 0xFFFFFFFF) | 1))
    main.emit(ir.Const(EDI, 4))
    main.emit(ir.Label("block"))
    for f in generated:
        call_const(main, f.name, seed & 0xFFFF)
        main.emit(ir.BinOp("xor", ESI, EAX))
    main.emit(ir.Mov(EBX, ESI))
    main.emit(ir.Mov(ECX, EDI))
    main.emit(ir.Const(EDX, stats))
    main.emit(ir.Call(EAX, "digest_rand", (EBX, ECX, EDX)))
    main.emit(ir.BinOp("xor", ESI, EAX))
    main.emit(ir.Const(EDX, 1))
    main.emit(ir.BinOp("sub", EDI, EDX))
    main.emit(ir.Branch("ne", EDI, 0, "block"))
    main.emit(ir.Mov(EBX, ESI))
    main.emit(ir.Const(ECX, data.addr("hexbuf")))
    main.emit(ir.Call(EAX, "to_hex", (EBX, ECX)))
    call_const(main, "write_buf", data.addr("hexbuf"), 8)
    main.emit(ir.Mov(EAX, ESI))
    main.emit(ir.Const(ECX, 63))
    main.emit(ir.BinOp("and", EAX, ECX))
    main.emit(ir.Ret())

    functions = [
        main,
        builders.make_digest("digest_rand", rounds=12, branchy=True),
        builders.to_hex(),
        builders.write_buf(),
        builders.clip(),  # deliberately never called (cold-code tamper target)
        *generated,
    ]
    return Program(
        f"rand{seed}", functions, rodata, data, candidates=["digest_rand"]
    )


def _protect(program: Program):
    config = ProtectConfig(
        strategy="cleartext", verification_functions=["digest_rand"]
    )
    return Parallax(config).protect(program)


def _signature(result):
    return (
        result.exit_status,
        result.steps,
        result.cycles,
        result.stdout,
        repr(result.fault),
    )


def _run_signature(image, engine):
    return _signature(
        Emulator(image, max_steps=MAX_STEPS, engine=engine).run()
    )


# ----------------------------------------------------------------------
# Random programs, unprotected and protected
# ----------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31))
# Seeds whose chains once put a far gadget's pad word below a branch
# target, so the protected run crashed on both engines.
@example(797)
@example(315523193)
@example(396008095)
@example(1355172685)
def test_random_programs_identical_under_all_engines(seed):
    program = _make_program(seed)
    sigs = {e: _run_signature(program.image, e) for e in ENGINES}
    assert all(sig == sigs["step"] for sig in sigs.values()), sigs

    protected = _protect(program)
    p_sigs = {e: _run_signature(protected.image, e) for e in ENGINES}
    assert all(sig == p_sigs["step"] for sig in p_sigs.values()), p_sigs
    # the chain rewrite must also preserve behaviour (same stdout)
    assert p_sigs["step"][3] == sigs["step"][3]


# ----------------------------------------------------------------------
# Wurster code-view overlay
# ----------------------------------------------------------------------

def _wurster_signature(protected, patch, engine):
    emulator = Emulator(protected.image, max_steps=MAX_STEPS, engine=engine)
    emulator.memory.patch_code_view(patch.vaddr, patch.new)
    return _signature(emulator.run())


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**31))
def test_wurster_patched_runs_identical_under_all_engines(seed):
    protected = _protect(_make_program(seed))
    image = protected.image
    target = next(
        addr
        for addr in protected.report.chains[0].gadget_addresses
        if image.section_at(addr).name == ".text"
    )
    patch = corrupt_byte(image, target)
    sigs = {e: _wurster_signature(protected, patch, e) for e in ENGINES}
    assert all(sig == sigs["step"] for sig in sigs.values()), sigs
    # and the chain must actually trip over the tampered gadget
    clean = _run_signature(image, "step")
    assert sigs["step"] != clean


# ----------------------------------------------------------------------
# Tamper-watch latency stamps
# ----------------------------------------------------------------------

def _watched_signature(image, ranges, engine):
    emulator = Emulator(image, max_steps=MAX_STEPS, engine=engine)
    watch = TamperWatch(ranges)
    emulator.tamper_watch = watch
    sig = _signature(emulator.run())
    return sig, (watch.hit_steps, watch.hit_cycles, watch.hit_eip)


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**31))
def test_tamper_watch_stamps_identical_under_all_engines(seed):
    """The detection-latency stamps (first execution of tampered bytes)
    must be byte-identical across engines: the block engine
    single-steps through watch-overlapping bodies, so the stamp always
    comes from the same per-step accounting."""
    protected = _protect(_make_program(seed))
    image = protected.image
    target = next(
        addr
        for addr in protected.report.chains[0].gadget_addresses
        if image.section_at(addr).name == ".text"
    )
    patch = corrupt_byte(image, target)
    tampered = image.clone()
    patch.apply(tampered)
    ranges = [(patch.vaddr, patch.vaddr + len(patch.new))]

    outcomes = {e: _watched_signature(tampered, ranges, e) for e in ENGINES}
    step_sig, step_stamp = outcomes["step"]
    assert all(o == outcomes["step"] for o in outcomes.values()), outcomes
    # the tampered gadget is on the chain's dispatch path: it executes
    assert step_stamp[1] is not None
    assert step_stamp[1] <= step_sig[2]  # stamped no later than run end


# ----------------------------------------------------------------------
# Mid-run tamper / restore
# ----------------------------------------------------------------------

SEED = 0xD1FF


def _advance(emulator, n):
    assert emulator.advance(steps=n)


def _tamper_restore_run(program, target, tamper_byte, engine):
    """Run with a one-byte code tamper applied and reverted mid-run."""
    emulator = Emulator(program.image, max_steps=MAX_STEPS, engine=engine)
    original = emulator.memory.read(target, 1)[0]
    phases = []
    try:
        _advance(emulator, 400)
        emulator.memory.write_u8(target, tamper_byte)
        phases.append((emulator.steps, emulator.cpu.eip))
        _advance(emulator, 400)
        emulator.memory.write_u8(target, original)
        phases.append((emulator.steps, emulator.cpu.eip))
    except Exception as exc:  # must be identical across engines too
        phases.append(("fault", type(exc).__name__, emulator.steps))
        return emulator, tuple(phases), None
    return emulator, tuple(phases), _signature(emulator.run())


def test_midrun_tamper_of_cold_code_invalidates_and_matches(monkeypatch):
    """Tampering never-executed code still bumps the page version, so
    superblocks sharing the page recompile; behaviour is unchanged."""
    program = _make_program(SEED)
    target = program.image.symbols["clip"].vaddr
    baseline = _run_signature(program.image, "step")

    results = {}
    for engine in ENGINES:
        emulator, phases, sig = _tamper_restore_run(program, target, 0x90, engine)
        results[engine] = (phases, sig)
        assert sig is not None, (engine, phases)
        assert sig == baseline  # cold-code tamper is behaviour-neutral
    assert all(r == results["step"] for r in results.values()), results

    # the block engine must have dropped blocks compiled over that page;
    # compile on first dispatch, so blocks exist before the tamper (this
    # 2.6k-step program reaches the default threshold only afterwards)
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    emulator, _, _ = _tamper_restore_run(program, target, 0x90, "block")
    assert emulator.blocks.invalidated >= 1


def test_midrun_tamper_of_hot_code_matches():
    """Tampering the digest entry mid-run: whatever happens (fault or
    divergence), both engines observe exactly the same thing."""
    program = _make_program(SEED)
    target = program.image.symbols["digest_rand"].vaddr

    outcomes = {}
    for engine in ENGINES:
        _, phases, sig = _tamper_restore_run(program, target, 0x90, engine)
        outcomes[engine] = (phases, sig)
    assert all(o == outcomes["step"] for o in outcomes.values()), outcomes
