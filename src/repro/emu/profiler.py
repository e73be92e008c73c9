"""Per-function cycle attribution and dynamic call-graph recording.

The verification-function selection algorithm of the paper's §VII-B needs
(1) how often each function is called, (2) the share of total execution
time it accounts for.  The profiler gathers both as a block observer
(see :mod:`repro.emu.emulator`), so it runs on the block engine: every
block lies inside one symbol, so a block that ran ``count`` instructions
charges its function ``count`` steps and ``cum[count - 1]`` cycles, and
a block that ran through its final direct ``call`` counts one call and
one call edge.  Ret-mispredict penalties are charged to no function.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..binary.image import BinaryImage
from .emulator import Emulator

UNKNOWN = "<unknown>"


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
    """Attributes executed cycles to the function covering each block."""

    def __init__(self, image: BinaryImage):
        self.image = image
        self.profiles: Dict[str, FunctionProfile] = {}
        self.call_edges: Counter = Counter()
        #: block -> (its function's profile, cum costs, call edge or None)
        self._entries = {}

    def attach(self, emulator: Emulator) -> None:
        emulator.add_observer(self)

    @property
    def total_cycles(self) -> int:
        return sum(prof.cycles for prof in self.profiles.values())

    def _name_at(self, vaddr: int) -> str:
        symbol = self.image.symbols.at(vaddr)
        return symbol.name if symbol is not None else UNKNOWN

    def _profile_for(self, name: str) -> FunctionProfile:
        prof = self.profiles.get(name)
        if prof is None:
            prof = FunctionProfile(name)
            self.profiles[name] = prof
        return prof

    def _entry(self, block):
        name = self._name_at(block.start)
        edge = None
        last = block.insns[-1]
        if last.mnemonic == "call":
            target = last.branch_target()
            if target is not None:
                # Calls into symbol-less code (stubs, inserted sections)
                # still count — attributed to <unknown> rather than
                # silently dropped, so call totals match reality.
                edge = (name, self._name_at(target))
        return self._profile_for(name), block.cum, edge

    def __call__(self, block, count: int) -> None:
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = self._entry(block)
        prof, cum, edge = entry
        prof.steps += count
        prof.cycles += cum[count - 1]
        if edge is not None and count == len(cum):
            self._profile_for(edge[1]).calls += 1
            self.call_edges[edge] += 1

    # ------------------------------------------------------------------
    # Queries used by the selection algorithm
    # ------------------------------------------------------------------

    def time_fraction(self, name: str) -> float:
        """Fraction of total cycles spent inside ``name``."""
        total = self.total_cycles
        prof = self.profiles.get(name)
        return prof.cycles / total if prof and total else 0.0

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
):
    """Run ``image`` under the profiler; returns (RunResult, Profiler).

    The run is an ordinary block-engine run with the profiler as its
    block observer.  Pass a :class:`repro.emu.hotspots.HotspotProfiler`
    as ``hotspots`` to collect hot-spot samples from the same run.
    """
    from .syscalls import OperatingSystem

    os = OperatingSystem(stdin=stdin, debugger_attached=debugger_attached)
    emulator = Emulator(image, os=os, max_steps=max_steps)
    if hotspots is not None:
        emulator.hotspots = hotspots
    profiler = Profiler(image)
    profiler.attach(emulator)
    return emulator.run(), profiler
