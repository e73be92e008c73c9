"""Engine hot-spot profiler: per-mnemonic and per-block sample counters.

The function-level :mod:`repro.emu.profiler` answers *which routine* is
hot; this module answers *which instructions and superblocks* the
engines actually spend their time in — the attribution §V of the paper
needs when a verification chain shows up as slowdown.

Counting strategy, chosen so the block engine keeps its speed edge:

* the **step engine** counts every executed mnemonic as it dispatches
  (one dict update per step, only when a profiler is installed);
* the **block engine** counts one sample per *block execution* and
  remembers each block's mnemonic tuple; per-mnemonic totals are then
  reconstituted at report time as ``executions × occurrences``, so the
  generated block bodies stay untouched and full-speed.

Both engines feed the same :class:`HotspotProfiler`; ``repro profile``
and the metrics export (the labeled families
``emu.hot.mnemonic{mnemonic=}`` and ``emu.hot.block{addr=}``) render
the merged view.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["HotspotProfiler"]


class HotspotProfiler:
    """Sample counters keyed by mnemonic and block start."""

    __slots__ = ("mnemonic_samples", "block_samples", "_block_mnems")

    def __init__(self):
        #: mnemonic -> executed-instruction count (step engine, direct).
        self.mnemonic_samples: Dict[str, int] = {}
        #: block start address -> execution count (block engine).
        self.block_samples: Dict[int, int] = {}
        #: block start address -> that block's mnemonic tuple.
        self._block_mnems: Dict[int, Tuple[str, ...]] = {}

    # -- recording (hot paths) ------------------------------------------

    def record_step(self, mnemonic: str) -> None:
        """One executed instruction (step engine)."""
        samples = self.mnemonic_samples
        samples[mnemonic] = samples.get(mnemonic, 0) + 1

    def record_block(self, block) -> None:
        """One executed superblock (block engine).

        ``block`` is a :class:`repro.emu.blocks.CompiledBlock`; its
        ``mnems`` tuple is captured so report-time aggregation can
        expand block executions into per-mnemonic counts.
        """
        start = block.start
        samples = self.block_samples
        samples[start] = samples.get(start, 0) + 1
        if start not in self._block_mnems:
            self._block_mnems[start] = block.mnems

    # -- aggregation -----------------------------------------------------

    def mnemonic_counts(self) -> Dict[str, int]:
        """Merged per-mnemonic totals across both engines.

        Block samples expand to ``executions × occurrences`` per
        mnemonic.  Side-exited runs attribute the whole block, so these
        counts are an upper bound for bodies with conditional exits —
        fine for hot-spot ranking.
        """
        totals = dict(self.mnemonic_samples)
        for start, executions in self.block_samples.items():
            for mnemonic in self._block_mnems.get(start, ()):
                totals[mnemonic] = totals.get(mnemonic, 0) + executions
        return totals

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
        self.mnemonic_samples.clear()
        self.block_samples.clear()
        self._block_mnems.clear()

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
        if self.block_samples:
            lines.append(f"  {'block':<10} {'execs':>14} {'len':>8}")
            for start, execs in self.top_blocks(top):
                length = len(self._block_mnems.get(start, ()))
                lines.append(f"  {start:#010x} {execs:>14,} {length:>8}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<HotspotProfiler {len(self.mnemonic_samples)} mnemonics, "
            f"{len(self.block_samples)} blocks>"
        )
