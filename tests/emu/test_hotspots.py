"""The profiler's hot-spot view: sampling, aggregation, metrics export."""

import repro.emu.blocks as blocks
from repro.binary import BinaryImage, Perm, Section
from repro.emu import Emulator, Profiler, StepBlock, profile_run
from repro.telemetry import telemetry_session
from repro.x86 import Assembler, EAX, ECX, Imm, Instruction

BASE = 0x1000


def make_loop_image(n=50):
    a = Assembler(base=BASE)
    a.mov(ECX, Imm(n, 32))
    a.mov(EAX, 0)
    a.label("top")
    a.add(EAX, ECX)
    a.dec(ECX)
    a.jne("top")
    a.ret()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.add_section(Section(".data", 0x8000, bytes(256), Perm.RW))
    return img


class FakeBlock:
    """A compiled superblock as block observers see it."""

    compiled = True

    def __init__(self, start, mnems):
        self.start = start
        self.insns = tuple(Instruction(m, raw=b"\x90") for m in mnems)
        self.n = len(self.insns)


def step(hot, mnemonic, eip=0x9000):
    """One instruction run by Emulator.step, as the observer sees it."""
    hot(StepBlock(eip, Instruction(mnemonic, raw=b"\x90")), 1)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def test_step_and_block_samples_merge():
    hot = Profiler(BinaryImage("t"))
    for _ in range(3):
        step(hot, "mov")
    step(hot, "ret", eip=0x9001)
    block = FakeBlock(0x1000, ("mov", "add", "mov"))
    hot(block, 3)
    hot(block, 3)
    counts = hot.mnemonic_counts()
    # block executions expand to executions x occurrences
    assert counts["mov"] == 3 + 2 * 2
    assert counts["add"] == 2
    assert counts["ret"] == 1
    assert hot.block_samples == {0x1000: 2}
    assert hot.total_samples == sum(counts.values())
    assert hot.top_mnemonics(1) == [("mov", 7)]
    assert hot.top_blocks(1) == [(0x1000, 2)]


def test_partial_block_runs_count_only_executed_instructions():
    hot = Profiler(BinaryImage("t"))
    block = FakeBlock(0x1000, ("cmp", "jne", "add", "ret"))
    hot(block, 4)
    hot(block, 2)  # side exit at the jne
    hot(block, 1)  # fault in the cmp
    assert hot.mnemonic_counts() == {"cmp": 3, "jne": 2, "add": 1, "ret": 1}
    assert hot.block_samples == {0x1000: 3}


def test_ties_rank_deterministically_and_clear_resets():
    hot = Profiler(BinaryImage("t"))
    step(hot, "b")
    step(hot, "a", eip=0x9001)
    assert hot.top_mnemonics(2) == [("a", 1), ("b", 1)]  # count desc, then name
    hot.clear()
    assert hot.total_samples == 0
    assert hot.hotspot_report() == "no hot-spot samples recorded"


def test_report_renders_mnemonic_and_block_tables():
    hot = Profiler(BinaryImage("t"))
    step(hot, "mov")
    hot(FakeBlock(0x2000, ("ret",)), 1)
    out = hot.hotspot_report()
    assert "engine hot spots" in out
    assert "mov" in out and "ret" in out
    assert "0x00002000" in out  # block table keyed by start address


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def test_step_engine_samples_every_instruction():
    img = make_loop_image()
    emu = Emulator(img, max_steps=100_000, engine="step")
    hot = Profiler(img)
    hot.attach(emu)
    emu.call_function(BASE)
    counts = hot.mnemonic_counts()
    assert sum(counts.values()) == emu.steps
    assert counts.get("add", 0) >= 50
    assert not hot.block_samples  # no blocks in the step engine


def test_block_engine_samples_block_executions(monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    img = make_loop_image()
    emu = Emulator(img, max_steps=100_000, engine="block")
    hot = Profiler(img)
    hot.attach(emu)
    emu.call_function(BASE)
    assert hot.block_samples, "block engine must record block executions"
    assert max(hot.block_samples.values()) >= 40  # the loop body re-enters
    counts = hot.mnemonic_counts()
    assert counts.get("add", 0) >= 50


def test_block_engine_mnemonic_counts_are_exact_on_gzip(small_gzip):
    # Side exits and the run-ending ExitProgram count only the
    # instructions that ran, so the block engine's expansion matches the
    # step engine's per-instruction counts exactly.
    counts = {}
    for engine in ("step", "block"):
        emu = Emulator(small_gzip.image, max_steps=10_000_000, engine=engine)
        hot = Profiler(small_gzip.image)
        hot.attach(emu)
        result = emu.run()
        assert not result.crashed
        counts[engine] = hot.mnemonic_counts()
        assert sum(counts[engine].values()) == result.steps
    assert counts["block"] == counts["step"]


def test_no_sampling_without_a_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    emu.call_function(BASE)
    assert emu.observer is None  # call_function never installs one


# ----------------------------------------------------------------------
# Metrics export: only a profile run publishes hot spots
# ----------------------------------------------------------------------


def test_plain_run_under_telemetry_registers_no_observer():
    with telemetry_session(metrics=True, tracing=True, recorder=True) as (
        metrics, _tracer,
    ):
        emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
        emu.cpu.eip = BASE
        emu.run()  # the bare `ret` faults; metrics still flush
        samples = metrics.to_dict()
    assert emu.observer is None
    assert samples["emu.runs"]["value"] == 1
    assert not [name for name in samples if name.startswith("emu.hot.")]


def test_profile_run_under_metrics_exports_its_top_hot_spots(small_gzip):
    with telemetry_session(metrics=True) as (metrics, _tracer):
        result, profiler = profile_run(small_gzip.image, max_steps=10_000_000)
        samples = metrics.to_dict()
    assert not result.crashed

    def series(family, label):
        return sorted(
            (sample["labels"][label], sample["value"])
            for sample in samples.values()
            if sample["name"] == family
        )

    assert series("emu.hot.mnemonic", "mnemonic") == sorted(
        profiler.top_mnemonics(16)
    )
    assert series("emu.hot.block", "addr") == sorted(
        (f"{start:#010x}", execs) for start, execs in profiler.top_blocks(16)
    )
