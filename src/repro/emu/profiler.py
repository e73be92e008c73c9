"""Per-function cycle attribution and dynamic call-graph recording.

The verification-function selection algorithm of the paper's §VII-B needs
(1) how often each function is called, (2) the share of total execution
time it accounts for.  The profiler gathers both by hooking the
emulator's per-step trace callback.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..binary.image import BinaryImage
from .dispatch import cost_of
from .emulator import Emulator


class FunctionProfile:
    """Aggregated statistics for one function."""

    __slots__ = ("name", "calls", "cycles", "steps")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.cycles = 0
        self.steps = 0

    def __repr__(self) -> str:
        return (
            f"<FunctionProfile {self.name} calls={self.calls} "
            f"cycles={self.cycles}>"
        )


class Profiler:
    """Attributes executed cycles to the function covering each eip."""

    def __init__(self, image: BinaryImage):
        self.image = image
        self.profiles: Dict[str, FunctionProfile] = {}
        self.call_edges: Counter = Counter()
        self.total_cycles = 0

    def attach(self, emulator: Emulator) -> None:
        emulator.trace_hook = self._on_step

    def _profile_for(self, name: str) -> FunctionProfile:
        prof = self.profiles.get(name)
        if prof is None:
            prof = FunctionProfile(name)
            self.profiles[name] = prof
        return prof

    def _on_step(self, eip: int, insn) -> None:
        symbol = self.image.symbols.at(eip)
        name = symbol.name if symbol is not None else "<unknown>"
        cost = cost_of(insn)  # memoized by Emulator.step just before
        prof = self._profile_for(name)
        prof.cycles += cost
        prof.steps += 1
        self.total_cycles += cost

        if insn.mnemonic == "call":
            target = insn.branch_target()
            if target is not None:
                # Calls into symbol-less code (stubs, inserted sections)
                # still count — attributed to <unknown> rather than
                # silently dropped, so call totals match reality.
                callee = self.image.symbols.at(target)
                callee_name = callee.name if callee is not None else "<unknown>"
                self._profile_for(callee_name).calls += 1
                self.call_edges[(name, callee_name)] += 1

    # ------------------------------------------------------------------
    # Queries used by the selection algorithm
    # ------------------------------------------------------------------

    def time_fraction(self, name: str) -> float:
        """Fraction of total cycles spent inside ``name``."""
        if self.total_cycles == 0:
            return 0.0
        prof = self.profiles.get(name)
        return prof.cycles / self.total_cycles if prof else 0.0

    def call_count(self, name: str) -> int:
        prof = self.profiles.get(name)
        return prof.calls if prof else 0

    def callers_of(self, name: str) -> int:
        """Number of distinct calling functions observed."""
        return len({caller for (caller, callee) in self.call_edges if callee == name})

    def report(self) -> str:
        lines = [f"{'function':<28} {'calls':>8} {'cycles':>12} {'share':>8}"]
        for prof in sorted(
            self.profiles.values(), key=lambda p: -p.cycles
        ):
            share = self.time_fraction(prof.name)
            lines.append(
                f"{prof.name:<28} {prof.calls:>8} {prof.cycles:>12} {share:>7.1%}"
            )
        return "\n".join(lines)


def profile_run(
    image: BinaryImage,
    stdin: bytes = b"",
    max_steps: int = 5_000_000,
    debugger_attached: bool = False,
    hotspots=None,
    engine: str = "step",
):
    """Run ``image`` under the profiler; returns (RunResult, Profiler).

    Pass a :class:`repro.emu.hotspots.HotspotProfiler` as ``hotspots``
    to also collect hot-spot samples.  The function profiler itself
    always forces the step engine (its per-instruction trace hook is
    how cycles get attributed), so with ``engine="step"`` the hot-spot
    samples come from that same run.  Any other ``engine`` triggers a
    second, hook-free run under that engine so the profiler can record
    engine-level samples too — superblock executions for ``block``.
    """
    from .syscalls import OperatingSystem

    os = OperatingSystem(stdin=stdin, debugger_attached=debugger_attached)
    emulator = Emulator(image, os=os, max_steps=max_steps)
    if hotspots is not None and engine == "step":
        emulator.hotspots = hotspots
    profiler = Profiler(image)
    profiler.attach(emulator)
    result = emulator.run()
    if hotspots is not None and engine != "step":
        os2 = OperatingSystem(stdin=stdin, debugger_attached=debugger_attached)
        sampler = Emulator(image, os=os2, max_steps=max_steps, engine=engine)
        sampler.hotspots = hotspots
        sampler.run()
    return result, profiler
