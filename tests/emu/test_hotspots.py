"""Engine hot-spot profiler: sampling, aggregation, metrics export."""

import repro.emu.blocks as blocks
from repro.binary import BinaryImage, Perm, Section
from repro.emu import Emulator, HotspotProfiler, StepBlock
from repro.telemetry import MetricsRegistry, telemetry_session
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
    hot = HotspotProfiler()
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
    hot = HotspotProfiler()
    block = FakeBlock(0x1000, ("cmp", "jne", "add", "ret"))
    hot(block, 4)
    hot(block, 2)  # side exit at the jne
    hot(block, 1)  # fault in the cmp
    assert hot.mnemonic_counts() == {"cmp": 3, "jne": 2, "add": 1, "ret": 1}
    assert hot.block_samples == {0x1000: 3}


def test_ties_rank_deterministically_and_clear_resets():
    hot = HotspotProfiler()
    step(hot, "b")
    step(hot, "a", eip=0x9001)
    assert hot.top_mnemonics(2) == [("a", 1), ("b", 1)]  # count desc, then name
    hot.clear()
    assert hot.total_samples == 0
    assert hot.report() == "no hot-spot samples recorded"


def test_report_renders_mnemonic_and_block_tables():
    hot = HotspotProfiler()
    step(hot, "mov")
    hot(FakeBlock(0x2000, ("ret",)), 1)
    out = hot.report()
    assert "engine hot spots" in out
    assert "mov" in out and "ret" in out
    assert "0x00002000" in out  # block table keyed by start address


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def test_step_engine_samples_every_instruction():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    emu.hotspots = HotspotProfiler()
    emu.call_function(BASE)
    counts = emu.hotspots.mnemonic_counts()
    assert sum(counts.values()) == emu.steps
    assert counts.get("add", 0) >= 50
    assert not emu.hotspots.block_samples  # no blocks in the step engine


def test_block_engine_samples_block_executions(monkeypatch):
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 1)
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    emu.hotspots = HotspotProfiler()
    emu.call_function(BASE)
    hot = emu.hotspots
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
        emu.hotspots = HotspotProfiler()
        result = emu.run()
        assert not result.crashed
        counts[engine] = emu.hotspots.mnemonic_counts()
        assert sum(counts[engine].values()) == result.steps
    assert counts["block"] == counts["step"]


def test_no_sampling_without_a_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    emu.call_function(BASE)
    assert emu.hotspots is None  # call_function never auto-installs


# ----------------------------------------------------------------------
# Auto-install policy (REPRO_HOTSPOTS) and metrics export
# ----------------------------------------------------------------------


def test_auto_install_follows_metrics_and_env(monkeypatch):
    img = make_loop_image()
    monkeypatch.delenv("REPRO_HOTSPOTS", raising=False)
    emu = Emulator(img, max_steps=100_000, engine="step")
    emu._maybe_enable_hotspots(MetricsRegistry(enabled=False))
    assert emu.hotspots is None  # auto + metrics off -> no profiler
    emu._maybe_enable_hotspots(MetricsRegistry(enabled=True))
    assert emu.hotspots is not None and emu._hotspots_auto

    monkeypatch.setenv("REPRO_HOTSPOTS", "0")
    forced_off = Emulator(img, max_steps=100_000, engine="step")
    forced_off._maybe_enable_hotspots(MetricsRegistry(enabled=True))
    assert forced_off.hotspots is None  # "0" beats enabled metrics

    monkeypatch.setenv("REPRO_HOTSPOTS", "1")
    forced_on = Emulator(img, max_steps=100_000, engine="step")
    forced_on._maybe_enable_hotspots(MetricsRegistry(enabled=False))
    assert forced_on.hotspots is not None  # "1" beats disabled metrics


def test_auto_install_never_replaces_a_caller_profiler(monkeypatch):
    monkeypatch.setenv("REPRO_HOTSPOTS", "1")
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    mine = HotspotProfiler()
    emu.hotspots = mine
    emu._maybe_enable_hotspots(MetricsRegistry(enabled=True))
    assert emu.hotspots is mine and not emu._hotspots_auto


def test_metrics_export_flushes_auto_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    emu.hotspots = HotspotProfiler()
    emu._hotspots_auto = True
    emu.call_function(BASE)
    registry = MetricsRegistry(enabled=True)
    emu._record_engine_metrics(registry)
    samples = registry.to_dict()
    assert samples['emu.hot.mnemonic{mnemonic="add"}']["value"] >= 50
    # auto-installed profilers are cleared after the flush so repeated
    # runs do not double-count
    assert emu.hotspots.total_samples == 0


def test_metrics_export_retains_explicit_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    mine = HotspotProfiler()
    emu.hotspots = mine  # caller-installed: _hotspots_auto stays False
    emu.call_function(BASE)
    registry = MetricsRegistry(enabled=True)
    emu._record_engine_metrics(registry)
    samples = registry.to_dict()
    assert any(name.startswith("emu.hot.block{") for name in samples)
    assert mine.total_samples > 0  # left intact for the caller


def test_run_under_metrics_session_exports_hot_counters(monkeypatch):
    monkeypatch.delenv("REPRO_HOTSPOTS", raising=False)
    with telemetry_session(metrics=True) as (metrics, _tracer):
        emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
        emu.cpu.eip = BASE
        emu.run()  # the bare `ret` faults; metrics still flush
        samples = metrics.to_dict()
    hot_names = [n for n in samples if n.startswith("emu.hot.mnemonic{")]
    assert hot_names, "run() must auto-install and flush the profiler"
    assert emu.hotspots is not None and emu.hotspots.total_samples == 0
