"""Per-function cycle attribution."""

from repro.binary import BinaryImage, Perm, Section
from repro.emu import Emulator, Profiler, profile_run
from repro.emu.dispatch import RET_MISPREDICT_PENALTY
from repro.x86 import Assembler, EAX


def test_profiler_attributes_functions(small_wget):
    result, profiler = profile_run(small_wget.image)
    assert not result.crashed
    assert profiler.total_cycles > 0
    shares = {
        name: profiler.time_fraction(name) for name in small_wget.functions
    }
    # the bulk work dominates, the digest is cheap
    assert shares["checksum_words"] > shares["digest_wget"]
    assert abs(sum(profiler.time_fraction(p.name) for p in profiler.profiles.values()) - 1.0) < 1e-9
    assert profiler.call_count("digest_wget") >= 2
    assert "function" in profiler.report()


def _call_graph_image():
    """main calls helper twice + one symbol-less target; alt calls helper."""
    a = Assembler(base=0x1000)
    a.label("main")
    a.call("helper")
    a.call("helper")
    a.call("nosym")
    a.ret()
    a.label("alt")
    a.call("helper")
    a.ret()
    a.label("helper")
    a.mov(EAX, 1)
    a.ret()
    a.label("nosym")  # deliberately gets no symbol table entry
    a.mov(EAX, 2)
    a.ret()
    image = BinaryImage("callgraph")
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    bounds = {name: a.address_of(name) for name in ("main", "alt", "helper", "nosym")}
    image.add_function("main", bounds["main"], bounds["alt"] - bounds["main"])
    image.add_function("alt", bounds["alt"], bounds["helper"] - bounds["alt"])
    image.add_function("helper", bounds["helper"], bounds["nosym"] - bounds["helper"])
    return image, bounds


def test_call_to_symbolless_code_counts_as_unknown():
    # Regression: calls whose target has no symbol used to be silently
    # dropped from both the callee profile and the call-edge counter.
    image, bounds = _call_graph_image()
    emulator = Emulator(image, max_steps=10_000)
    profiler = Profiler(image)
    profiler.attach(emulator)
    emulator.call_function(bounds["main"])
    assert profiler.call_count("<unknown>") == 1
    assert profiler.call_edges[("main", "<unknown>")] == 1
    assert profiler.call_count("helper") == 2


def test_callers_of_deduplicates_by_caller():
    image, bounds = _call_graph_image()
    emulator = Emulator(image, max_steps=10_000)
    profiler = Profiler(image)
    profiler.attach(emulator)
    emulator.call_function(bounds["main"])  # helper called twice from main
    assert profiler.callers_of("helper") == 1
    emulator.call_function(bounds["alt"])   # second distinct caller
    assert profiler.callers_of("helper") == 2
    assert profiler.callers_of("<unknown>") == 1
    assert profiler.callers_of("never_called") == 0


def test_profiler_cycles_match_emulator_cost_model(protected_wget_cleartext):
    # The profiler charges each step what Emulator.step charges; the
    # only cycles it cannot see are the ret-mispredict penalties, which
    # the protected program's verification chains incur.
    image = protected_wget_cleartext.image
    emulator = Emulator(image, max_steps=5_000_000)
    profiler = Profiler(image)
    profiler.attach(emulator)
    result = emulator.run()
    assert not result.crashed
    assert emulator.ret_mispredicts > 0
    assert (
        profiler.total_cycles
        + RET_MISPREDICT_PENALTY * emulator.ret_mispredicts
        == result.cycles
    )
