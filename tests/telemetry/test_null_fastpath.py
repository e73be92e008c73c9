"""The disabled-telemetry fast path: no allocation, negligible cost.

Every subsystem is instrumented unconditionally; what keeps the
default (telemetry-off) configuration honest is that the disabled
instruments, tracer and recorder allocate nothing per call and cost
less than a few percent of one emulated instruction.
"""

import time
import tracemalloc

from repro.binary import BinaryImage, Perm, Section
from repro.emu import Emulator
from repro.telemetry import FlightRecorder, MetricsRegistry, Tracer
from repro.telemetry.metrics import NULL_COUNTER, NULL_HISTOGRAM
from repro.telemetry.tracing import NULL_SPAN
from repro.x86 import Assembler, EAX, ECX, Imm

BASE = 0x1000


def _loop_image(n):
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
    return img


def test_disabled_calls_allocate_nothing():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("c")
    hist = registry.histogram("h")
    rec = FlightRecorder(enabled=False)
    tracer = Tracer(enabled=False)
    # disabled accessors hand out the shared null singletons
    assert counter is NULL_COUNTER and hist is NULL_HISTOGRAM
    assert tracer.span("x") is NULL_SPAN

    def batch(n):
        for _ in range(n):
            counter.inc()
            hist.observe(1.0)
            rec.record("k", a=1)
            with tracer.span("s"):
                pass

    batch(200)  # warm up method caches / bytecode specialization
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        batch(5_000)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= 512, "disabled telemetry retained memory"
    assert len(rec) == 0 and rec.dropped == 0
    assert tracer.spans == []
    assert len(registry) == 0


def _best_of(fn, repeats=5):
    return min(fn() for _ in range(repeats))


def test_disabled_guards_cost_under_five_percent_of_an_emulated_step():
    """The hot-path guards (``observer is not None``, ``rec.enabled``)
    must stay well under 5% of the cost of emulating one instruction."""
    emu = Emulator(_loop_image(2000), max_steps=1_000_000, engine="step")
    emu.call_function(BASE)  # warm the decode caches

    def emulator_seconds_per_step():
        start = emu.steps
        t0 = time.perf_counter()
        emu.call_function(BASE)
        return (time.perf_counter() - t0) / (emu.steps - start)

    rec = FlightRecorder(enabled=False)
    observer = None
    n = 100_000

    def guarded_loop():
        t0 = time.perf_counter()
        for _ in range(n):
            if rec.enabled:
                rec.record("k")
            if observer is not None:
                observer(None, 1)
        return time.perf_counter() - t0

    def bare_loop():
        t0 = time.perf_counter()
        for _ in range(n):
            pass
        return time.perf_counter() - t0

    # CI timing is noisy: best-of-N per measurement, a few retries.
    per_guard = per_step = None
    for _ in range(3):
        per_step = _best_of(emulator_seconds_per_step)
        per_guard = max(0.0, (_best_of(guarded_loop) - _best_of(bare_loop)) / n)
        if per_guard < 0.05 * per_step:
            break
    assert per_guard < 0.05 * per_step, (per_guard, per_step)
