"""The block profile: per-function cycle shares and engine hot spots.

The paper's §VII-B selection needs how often each function is called
and its share of total execution time.  :class:`Profiler` is a block
observer (see :mod:`repro.emu.emulator`) that keeps, per block, a
histogram of how many of its instructions each execution ran — a call
reporting ``times`` executions adds ``times`` to one bucket, so a
self-loop's iterations cost one call per loop exit; both views are
derived from it when read, exact on both engines:

* per function — every block lies inside one symbol, so an execution
  that ran ``k`` instructions charges its function ``k`` steps and
  ``cum[k - 1]`` cycles, and one that ran through its final direct
  ``call`` counts one call and one call edge.  Ret-mispredict
  penalties are charged to no function.  The table is derived once,
  and again only after more executions are recorded.
* per hot spot — instruction ``i`` of a block ran once for every
  execution that got past it (per-mnemonic totals); compiled
  superblocks also count executions per start address.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from ..binary.image import BinaryImage
from .emulator import RUN_MAX_STEPS, Emulator

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
    """Per-block execution histograms, read per function or per hot spot."""

    def __init__(self, image: BinaryImage):
        self.image = image
        #: block -> histogram: ``runs[k]`` executions ran ``k`` of the
        #: block's instructions.
        self._runs: Dict[object, List[int]] = {}
        #: the derived ``(profiles, call_edges)``; ``None`` when stale.
        self._table = None

    def attach(self, emulator: Emulator) -> None:
        emulator.add_observer(self)

    def __call__(self, block, count: int, times: int) -> None:
        runs = self._runs.get(block)
        if runs is None:
            runs = self._runs[block] = [0] * (block.n + 1)
        runs[count] += times
        self._table = None

    def clear(self) -> None:
        self._runs.clear()
        self._table = None

    # ------------------------------------------------------------------
    # The per-function view (the selection algorithm's queries)
    # ------------------------------------------------------------------

    def _name_at(self, vaddr: int) -> str:
        symbol = self.image.symbols.at(vaddr)
        return symbol.name if symbol is not None else UNKNOWN

    def _view(self):
        if self._table is not None:
            return self._table
        profiles: Dict[str, FunctionProfile] = {}
        call_edges: Counter = Counter()
        for block, runs in self._runs.items():
            name = self._name_at(block.start)
            prof = profiles.setdefault(name, FunctionProfile(name))
            prof.steps += sum(k * execs for k, execs in enumerate(runs))
            prof.cycles += sum(c * e for c, e in zip(block.cum, runs[1:]))
            last, completed = block.insns[-1], runs[-1]
            if last.mnemonic == "call" and completed:
                target = last.branch_target()
                if target is not None:
                    # Calls into symbol-less code (stubs, inserted
                    # sections) still count — attributed to <unknown>
                    # rather than silently dropped, so call totals
                    # match reality.
                    callee = self._name_at(target)
                    profiles.setdefault(callee, FunctionProfile(callee))
                    profiles[callee].calls += completed
                    call_edges[(name, callee)] += completed
        self._table = profiles, call_edges
        return self._table

    @property
    def profiles(self) -> Dict[str, FunctionProfile]:
        return self._view()[0]

    @property
    def call_edges(self) -> Counter:
        return self._view()[1]

    @property
    def total_cycles(self) -> int:
        return sum(prof.cycles for prof in self.profiles.values())

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
        """Human-readable per-function cycle table."""
        lines = [f"{'function':<28} {'calls':>8} {'cycles':>12} {'share':>8}"]
        for prof in sorted(
            self.profiles.values(), key=lambda p: -p.cycles
        ):
            share = self.time_fraction(prof.name)
            lines.append(
                f"{prof.name:<28} {prof.calls:>8} {prof.cycles:>12} {share:>7.1%}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # The hot-spot view
    # ------------------------------------------------------------------

    def mnemonic_counts(self) -> Dict[str, int]:
        """Executed-instruction totals per mnemonic, across both engines."""
        totals: Dict[str, int] = {}
        for block, runs in self._runs.items():
            reached = 0
            for index in range(block.n, 0, -1):
                reached += runs[index]
                if reached:
                    mnemonic = block.insns[index - 1].mnemonic
                    totals[mnemonic] = totals.get(mnemonic, 0) + reached
        return totals

    @property
    def block_samples(self) -> Dict[int, int]:
        """Compiled-superblock start address -> execution count."""
        samples: Dict[int, int] = {}
        for block, runs in self._runs.items():
            if block.compiled:
                samples[block.start] = samples.get(block.start, 0) + sum(runs)
        return samples

    def top_mnemonics(self, n: int = 10) -> List[Tuple[str, int]]:
        totals = self.mnemonic_counts()
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def top_blocks(self, n: int = 10) -> List[Tuple[int, int]]:
        samples = self.block_samples
        return sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    @property
    def total_samples(self) -> int:
        return sum(self.mnemonic_counts().values())

    def hotspot_report(self, top: int = 10) -> str:
        """Human-readable hot-spot table (used by ``repro profile``)."""
        total = self.total_samples
        if not total:
            return "no hot-spot samples recorded"
        lines = [f"engine hot spots ({total:,} instruction samples)"]
        lines.append(f"  {'mnemonic':<10} {'samples':>14} {'share':>8}")
        for mnemonic, count in self.top_mnemonics(top):
            lines.append(
                f"  {mnemonic:<10} {count:>14,} {count / total:>8.2%}"
            )
        blocks = self.top_blocks(top)
        if blocks:
            lengths = {b.start: b.n for b in self._runs if b.compiled}
            lines.append(f"  {'block':<10} {'execs':>14} {'len':>8}")
            for start, execs in blocks:
                lines.append(f"  {start:#010x} {execs:>14,} {lengths[start]:>8}")
        return "\n".join(lines)


def profile_run(
    image: BinaryImage,
    stdin: bytes = b"",
    max_steps: int = RUN_MAX_STEPS,
    debugger_attached: bool = False,
):
    """Run ``image`` under the profiler; returns (RunResult, Profiler).

    The run is an ordinary block-engine run with the profiler as its
    block observer.  When the active metrics registry is enabled, the
    profile's top-16 hot spots are published as the labeled families
    ``emu.hot.mnemonic{mnemonic=}`` and ``emu.hot.block{addr=}``.
    """
    from ..telemetry import get_metrics
    from .syscalls import OperatingSystem

    os = OperatingSystem(stdin=stdin, debugger_attached=debugger_attached)
    emulator = Emulator(image, os=os, max_steps=max_steps)
    profiler = Profiler(image)
    profiler.attach(emulator)
    result = emulator.run()
    metrics = get_metrics()
    if metrics.enabled:
        # One labeled family per hot-spot dimension, so Prometheus sees
        # one family and the cardinality guard bounds its series.
        for mnemonic, count in profiler.top_mnemonics(16):
            metrics.counter("emu.hot.mnemonic", labels={"mnemonic": mnemonic}).inc(count)
        for start, execs in profiler.top_blocks(16):
            metrics.counter("emu.hot.block", labels={"addr": f"{start:#010x}"}).inc(execs)
    return result, profiler
