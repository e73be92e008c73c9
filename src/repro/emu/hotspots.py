"""Engine hot-spot profiler: per-mnemonic and per-block sample counters.

The function-level :mod:`repro.emu.profiler` answers *which routine* is
hot; this module answers *which instructions and superblocks* the
engines actually spend their time in — the attribution §V of the paper
needs when a verification chain shows up as slowdown.

:class:`HotspotProfiler` is a block observer (see
:mod:`repro.emu.emulator`): both engines call it with each executed
block and the exact number of its instructions that ran — the block
engine once per superblock, :meth:`~repro.emu.emulator.Emulator.step`
once per instruction.  Per block it keeps a histogram of those counts,
so recording is one dict probe and one list increment, and per-mnemonic
totals are expanded at report time: instruction ``i`` of a block ran
once for every execution that got past it.  The counts are therefore
exact on both engines, side exits and faults included.

``repro profile`` and the metrics export (the labeled families
``emu.hot.mnemonic{mnemonic=}`` and ``emu.hot.block{addr=}``) render
the merged view.  Only compiled superblocks appear in the block table;
single steps count toward mnemonics alone.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["HotspotProfiler"]


class HotspotProfiler:
    """Sample counters keyed by mnemonic and block start."""

    __slots__ = ("_runs",)

    def __init__(self):
        #: block -> histogram: ``runs[k]`` executions ran ``k`` of the
        #: block's instructions.
        self._runs: Dict[object, List[int]] = {}

    # -- recording (the block observer) ---------------------------------

    def __call__(self, block, count: int) -> None:
        runs = self._runs.get(block)
        if runs is None:
            runs = self._runs[block] = [0] * (block.n + 1)
        runs[count] += 1

    # -- aggregation -----------------------------------------------------

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
        return sorted(
            self.block_samples.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    @property
    def total_samples(self) -> int:
        return sum(self.mnemonic_counts().values())

    def clear(self) -> None:
        self._runs.clear()

    # -- rendering -------------------------------------------------------

    def report(self, top: int = 10) -> str:
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
            lengths = {
                block.start: block.n for block in self._runs if block.compiled
            }
            lines.append(f"  {'block':<10} {'execs':>14} {'len':>8}")
            for start, execs in blocks:
                lines.append(f"  {start:#010x} {execs:>14,} {lengths[start]:>8}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<HotspotProfiler {len(self._runs)} blocks>"
