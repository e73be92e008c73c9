"""Chain-execution tracing: pinpoint the corrupted gadget of a chain."""

import json

import pytest

from repro.attacks.patching import corrupt_byte
from repro.emu import Emulator
from repro.telemetry import (
    ChainExecutionTracer, telemetry_session, trace_chain_run,
)


def _text_gadget(protected):
    """A chain gadget living in .text (tamperable program code)."""
    image = protected.image
    record = protected.report.chains[0]
    return next(
        addr
        for addr in record.gadget_addresses
        if image.section_at(addr).name == ".text"
    )


def test_clean_run_records_gadget_steps(protected_wget_cleartext):
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    result, tracer = trace_chain_run(protected.image, record)
    assert not result.crashed
    assert tracer.steps, "chain executed, steps must be recorded"
    recorded = {step.address for step in tracer.steps}
    assert recorded <= set(record.gadget_addresses)
    # every step carries its mnemonic sequence ending in a return
    for step in tracer.steps[:50]:
        assert step.mnemonics
        assert step.mnemonics[-1] in ("ret", "retf")
    assert tracer.summary()["steps_recorded"] == len(tracer.steps)


def test_emulate_span_reports_the_engine_that_ran(protected_wget_cleartext):
    # trace_chain_run runs on the step engine and a plain run on the
    # block engine; the span must say which one ran.
    protected = protected_wget_cleartext
    with telemetry_session() as (_metrics, tracer):
        trace_chain_run(protected.image, protected.report.chains[0])
        protected.run()
    engines = [span.attributes["engine"] for span in tracer.find("emulate")]
    assert engines == ["step", "block"]


def test_tampered_chain_identifies_corrupted_gadget(protected_wget_cleartext):
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    target = _text_gadget(protected)

    tampered = protected.image.clone()
    corrupt_byte(tampered, target).apply(tampered)
    result, tracer = trace_chain_run(tampered, record)

    baseline = protected.run()
    malfunction = (
        result.crashed
        or result.stdout != baseline.stdout
        or result.exit_status != baseline.exit_status
    )
    assert malfunction, "tampering a chain gadget must break the chain"
    assert tracer.corrupted_gadget(result.fault) == target


def test_corrupted_gadget_via_fault_eip_and_spans():
    tracer = ChainExecutionTracer(
        gadget_addresses=[0x1000, 0x2000],
        gadget_spans={0x1000: 0x1005, 0x2000: 0x2003},
    )

    class FakeFault:
        eip = 0x2001  # inside the second gadget's body

    assert tracer.corrupted_gadget(FakeFault()) == 0x2000
    # outside any span, and no steps recorded -> unknown
    FakeFault.eip = 0x9999
    assert tracer.corrupted_gadget(FakeFault()) is None


def test_disabled_tracer_installs_nothing():
    emulator = Emulator()
    tracer = ChainExecutionTracer([0x1000], enabled=False)
    assert tracer.install(emulator) is False
    assert emulator.observer is None


def test_install_refuses_the_block_engine():
    tracer = ChainExecutionTracer([0x1000])
    with pytest.raises(ValueError):
        tracer.install(Emulator(engine="block"))


def test_divergence_against_expected_sequence():
    tracer = ChainExecutionTracer([0x1, 0x2, 0x3])

    class FakeInsn:
        mnemonic = "ret"
        is_return = True

    for eip in (0x1, 0x2, 0x3):
        tracer.on_step(eip, FakeInsn())
    assert tracer.divergence([0x1, 0x2, 0x3]) is None
    assert tracer.divergence([0x1, 0x9, 0x3]) == 1
    assert tracer.divergence([0x1]) == 1  # executed more than expected


def test_steps_carry_monotonic_cycle_stamps(protected_wget_cleartext):
    """Every gadget dispatch is stamped with the emulator cycle counter,
    so a divergence can be located on the detection-latency axis."""
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    result, tracer = trace_chain_run(protected.image, record)
    assert not result.crashed
    stamps = [step.cycles for step in tracer.steps]
    assert all(c is not None for c in stamps)
    assert stamps == sorted(stamps)
    assert stamps[-1] <= result.cycles


def test_divergence_cycles_locates_first_divergent_dispatch():
    tracer = ChainExecutionTracer([0x1, 0x2, 0x3])

    class FakeInsn:
        mnemonic = "ret"
        is_return = True

    class FakeCpu:
        esp = 0

    class FakeEmulator:
        cpu = FakeCpu()
        cycles = 0

    emulator = FakeEmulator()
    tracer._emulator = emulator
    for cycles, eip in ((10, 0x1), (20, 0x2), (30, 0x3)):
        emulator.cycles = cycles
        tracer.on_step(eip, FakeInsn())
    assert tracer.divergence_cycles([0x1, 0x2, 0x3]) is None
    assert tracer.divergence_cycles([0x1, 0x9, 0x3]) == 20
    assert tracer.divergence_cycles([0x1]) == 20  # ran past expectations


def test_jsonl_export(tmp_path, protected_wget_cleartext):
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    result, tracer = trace_chain_run(protected.image, record)
    assert not result.crashed
    path = tmp_path / "chain.jsonl"
    tracer.write_jsonl(str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events[-1]["type"] == "chain_trace"
    assert events[-1]["steps_recorded"] == len(tracer.steps)
    steps = [e for e in events if e["type"] == "chain_step"]
    assert steps and all("mnemonics" in e and "esp" in e for e in steps)
