"""The block-engine profile equals the step-engine profile, exactly.

The §VII-B selection profile runs on the block engine, where the
profiler sees one observer call per superblock.  The step engine, which
reports every instruction, is the oracle: for every corpus program and
for each way a block can end early, both engines must produce the same
per-function calls, steps and cycles, the same call edges and total
cycles, the same hot-spot mnemonic counts and the same ``RunResult``.
"""

import pytest

import repro.emu.blocks as blocks
from repro.binary import BinaryImage, Perm, Section
from repro.corpus import (
    build_bzip2, build_gcc, build_gzip, build_lame, build_nginx, build_wget,
)
from repro.emu import (
    Emulator, OperatingSystem, Profiler, StepLimitExceeded, TamperWatch,
)
from repro.emu.dispatch import RET_MISPREDICT_PENALTY
from repro.x86 import Assembler, EAX, EBX, ECX, EDX, ESI, Imm, mem32

BASE = 0x1000
DATA = 0x8000

#: The six corpus programs with small workloads: the same functions as
#: the full builds, few enough steps for the step-engine oracle.
SMALL_CORPUS = {
    "wget": lambda: build_wget(blocks=2, chunks=10),
    "nginx": lambda: build_nginx(blocks=2, requests=4),
    "bzip2": lambda: build_bzip2(blocks=2, reps=2),
    "gzip": lambda: build_gzip(blocks=1, positions=6),
    "gcc": lambda: build_gcc(blocks=2, passes=10),
    "lame": lambda: build_lame(blocks=2, frames=6),
}


class Runs:
    """Records every block execution as ``(compiled, n, count)``, one
    entry per execution an observer call reports."""

    def __init__(self):
        self.calls = []

    def __call__(self, block, count, times):
        self.calls.extend([(block.compiled, block.n, count)] * times)

    @property
    def partial_blocks(self):
        return [c for c in self.calls if c[0] and c[2] < c[1]]

    @property
    def single_steps(self):
        return [c for c in self.calls if not c[0]]


def profile(image, engine, max_steps=1_000_000, watch=None):
    """One run under ``engine`` with a profiler and a recorder."""
    emu = Emulator(image, os=OperatingSystem(), max_steps=max_steps, engine=engine)
    profiler = Profiler(image)
    profiler.attach(emu)
    runs = Runs()
    emu.add_observer(runs)
    if watch is not None:
        emu.tamper_watch = TamperWatch([watch])
    result = emu.run()
    return emu, result, profiler, runs


def signature(emu, result, profiler):
    fault = result.fault
    return {
        "functions": {
            name: (prof.calls, prof.steps, prof.cycles)
            for name, prof in profiler.profiles.items()
        },
        "call_edges": dict(profiler.call_edges),
        "total_cycles": profiler.total_cycles,
        "mnemonics": profiler.mnemonic_counts(),
        "result": (
            result.exit_status, result.steps, result.cycles, result.stdout,
            type(fault).__name__ if fault else None,
            getattr(fault, "eip", None),
        ),
    }


def assert_engines_agree(image, **kwargs):
    """Profile ``image`` under both engines; returns the block run."""
    emu, result, profiler, runs = profile(image, "block", **kwargs)
    step = profile(image, "step", **kwargs)
    assert signature(emu, result, profiler) == signature(*step[:3])
    # every executed instruction is charged to exactly one function, and
    # only the ret-mispredict penalties stay unattributed
    assert sum(p.steps for p in profiler.profiles.values()) == result.steps
    assert (
        profiler.total_cycles + RET_MISPREDICT_PENALTY * emu.ret_mispredicts
        == result.cycles
    )
    return result, profiler, runs


@pytest.mark.parametrize("name", sorted(SMALL_CORPUS))
def test_corpus_profiles_match_across_engines(monkeypatch, name):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    result, profiler, runs = assert_engines_agree(SMALL_CORPUS[name]().image)
    assert not result.crashed
    assert profiler.call_count(f"digest_{name}") >= 1
    # the run ended with ExitProgram raised inside its last block
    compiled, n, count = runs.calls[-1]
    assert compiled and count == n


# ----------------------------------------------------------------------
# Synthetic programs: each way a block can end early
# ----------------------------------------------------------------------


def _image(build, functions):
    """Assemble ``build`` at BASE; ``functions`` are (label, end label)."""
    a = Assembler(base=BASE)
    build(a)
    image = BinaryImage("t")
    image.add_section(Section(".text", BASE, a.assemble(), Perm.RWX))
    image.add_section(Section(".data", DATA, bytes(256), Perm.RW))
    for name, end in functions:
        start = a.address_of(name)
        image.add_function(name, start, a.address_of(end) - start)
    image.entry = a.address_of("main")
    return image, a


def _exit(a):
    a.mov(EBX, EAX)
    a.mov(EAX, Imm(1, 32))
    a.int(0x80)


def _calls_and_side_exits(a):
    a.label("main")
    a.mov(ECX, Imm(20, 32))
    a.label("loop")
    a.call("work")
    a.call("fall")
    a.dec(ECX)
    a.jne("loop")
    a.mov(EAX, EDX)
    _exit(a)
    a.label("work")
    a.mov(EAX, ECX)
    a.and_(EAX, Imm(1, 32))
    a.je("even")  # taken for even ecx: a side exit mid-block
    a.add(EDX, Imm(3, 32))
    a.ret()
    a.label("even")
    a.add(EDX, Imm(5, 32))
    a.ret()
    a.label("fall")  # no ret: falls through into `next`
    a.add(ESI, Imm(1, 32))
    a.add(ESI, Imm(2, 32))
    a.label("next")
    a.add(ESI, Imm(4, 32))
    a.ret()
    a.label("end")


CALLS_AND_SIDE_EXITS = (
    ("main", "work"), ("work", "fall"), ("fall", "next"), ("next", "end"),
)


def test_side_exited_blocks_charge_their_executed_prefix():
    image, _ = _image(_calls_and_side_exits, CALLS_AND_SIDE_EXITS)
    result, profiler, runs = assert_engines_agree(image)
    assert result.exit_status == 20 * 3 + 10 * 2  # 10 odd + 10 even passes
    assert runs.partial_blocks, "the taken je must end a block early"
    work = profiler.profiles["work"]
    # odd: mov, and, je, add, ret; even: mov, and, je -> add, ret
    assert (work.calls, work.steps) == (20, 20 * 5)
    assert profiler.call_edges[("main", "work")] == 20


def test_fall_through_into_the_next_symbol_splits_the_block():
    image, a = _image(_calls_and_side_exits, CALLS_AND_SIDE_EXITS)
    emu, _result, profiler, _runs = profile(image, "block")
    fall = emu.blocks._cache[a.address_of("fall")]
    assert fall.end == a.address_of("next")  # stops at the symbol boundary
    assert (profiler.profiles["fall"].steps, profiler.profiles["next"].steps) == (
        20 * 2, 20 * 2
    )
    assert profiler.profiles["next"].calls == 0  # entered by fall-through
    assert_engines_agree(image)


def test_block_ended_by_exit_program():
    image, _ = _image(_calls_and_side_exits, CALLS_AND_SIDE_EXITS)
    result, profiler, runs = assert_engines_agree(image)
    assert result.fault is None
    compiled, n, count = runs.calls[-1]
    assert compiled and count == n >= 4  # mov, mov, mov, int 0x80
    # main's last block ran to the int 0x80 that raised ExitProgram
    assert profiler.profiles["main"].steps == 1 + 20 * 4 + 4


def test_fault_mid_block_charges_the_faulting_instruction(monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    def build(a):
        a.label("main")
        a.add(ECX, Imm(1, 32))
        a.mov(EAX, mem32(disp=0x00500000))  # unmapped: faults
        a.add(ECX, Imm(2, 32))
        _exit(a)
        a.label("end")

    image, _ = _image(build, (("main", "end"),))
    result, profiler, runs = assert_engines_agree(image)
    assert type(result.fault).__name__ == "BadMemoryAccess"
    assert runs.calls == [(True, 6, 2)]
    assert profiler.profiles["main"].steps == 2


def test_single_steps_near_the_budget():
    image, _ = _image(_calls_and_side_exits, CALLS_AND_SIDE_EXITS)
    # 105 lands inside `fall`'s two-instruction block, so the block
    # engine single-steps from there to the budget
    result, profiler, runs = assert_engines_agree(image, max_steps=105)
    assert isinstance(result.fault, StepLimitExceeded)
    assert result.steps == 105
    assert runs.single_steps, "the block engine must single-step the tail"


def test_tamper_watch_single_steps_are_observed():
    image, a = _image(_calls_and_side_exits, CALLS_AND_SIDE_EXITS)
    watched = (a.address_of("even"), a.address_of("fall"))
    block = profile(image, "block", watch=watched)
    step = profile(image, "step", watch=watched)
    assert signature(*block[:3]) == signature(*step[:3])
    watch_b, watch_s = block[0].tamper_watch, step[0].tamper_watch
    assert watch_b.hit and (watch_b.hit_steps, watch_b.hit_cycles) == (
        watch_s.hit_steps, watch_s.hit_cycles
    )
    assert block[3].single_steps, "the watched block must be single-stepped"


def test_self_modifying_store_abort_charges_the_executed_prefix(monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    # Overwrite four upcoming `inc ebx` with `dec ebx` from within the
    # same block: the block aborts right after the store.
    probe = Assembler(base=BASE)
    probe.mov(EAX, Imm(0, 32))
    probe.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
    target = probe.here

    def build(a):
        a.label("main")
        a.mov(EAX, Imm(target, 32))
        a.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
        a.raw(b"\x43\x43\x43\x43")  # inc ebx x4 -> becomes dec ebx x4
        a.mov(EAX, EBX)
        a.and_(EAX, Imm(0xFF, 32))
        _exit(a)
        a.label("end")

    image, _ = _image(build, (("main", "end"),))
    result, profiler, runs = assert_engines_agree(image)
    assert result.exit_status == 0xFC  # the dec's ran, not the inc's
    assert runs.calls[0][2] == 2  # aborted after the store
    assert profiler.profiles["main"].steps == result.steps
