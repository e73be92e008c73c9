"""Annotated-disassembly rendering of a coverage map.

One line per protected instruction, with a guard-depth column and flags
for the two conditions an operator cares about: ``SPOF`` (one chain is
the only guard) and ``UNCOVERED`` (no chain guards the byte at all).
"""

from __future__ import annotations

from typing import List

from ..x86.decoder import DecodeError, decode_all_cached
from .map import CoverageMap


def _depth_glyph(depth: int) -> str:
    if depth == 0:
        return "."
    if depth >= 9:
        return "+"
    return str(depth)


def render_coverage(cov: CoverageMap) -> str:
    """Human-readable coverage report with annotated disassembly."""
    lines: List[str] = [
        f"Coverage map: {cov.program} [{cov.strategy}]",
        f"  protected bytes : {cov.protected_bytes}",
        f"  covered bytes   : {cov.covered_bytes} "
        f"({100 * cov.coverage_fraction:.1f}%)",
        f"  overlap density : {cov.overlap_density:.2f} chains/byte",
        f"  SPOF bytes      : {len(cov.spof_addresses())}",
        f"  uncovered bytes : {cov.protected_bytes - cov.covered_bytes} "
        f"in {len(cov.uncovered_regions())} region(s)",
    ]
    if cov.rule_breakdown:
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(cov.rule_breakdown.items())
        )
        lines.append(f"  guarded by rule : {breakdown}")
    chains = ", ".join(cov.chain_names) or "(none)"
    lines.append(f"  chains          : {chains}")

    for fc in cov.functions():
        lines.append("")
        lines.append(
            f"{fc.name} @{fc.vaddr:#x} ({fc.size} bytes): "
            f"{100 * fc.coverage_fraction:.1f}% covered, "
            f"{fc.spof_bytes} SPOF byte(s), max depth {fc.max_depth}"
        )
        try:
            insns = decode_all_cached(
                cov.image.read(fc.vaddr, fc.size), address=fc.vaddr
            )
        except (DecodeError, IndexError) as exc:
            lines.append(f"  <disassembly unavailable: {exc}>")
            continue
        protected = cov._protected_set
        for insn in insns:
            if not any(b in protected for b in range(insn.address, insn.end)):
                continue
            span = range(insn.address, insn.address + insn.length)
            glyphs = "".join(_depth_glyph(cov.depth_at(b)) for b in span)
            depths = [cov.depth_at(b) for b in span]
            flags = []
            if any(d == 0 for d in depths):
                flags.append("UNCOVERED")
            elif min(depths) == 1:
                flags.append("SPOF")
            guard_chains = sorted(
                {idx for b in span for idx in cov.chains_at.get(b, ())}
            )
            names = ",".join(cov.chain_names[i] for i in guard_chains)
            flag_text = f"  !{'+'.join(flags)}" if flags else ""
            chain_text = f"  [{names}]" if names else ""
            lines.append(
                f"  {insn.address:#010x}  {glyphs:<8} {insn.text():<28}"
                f"{chain_text}{flag_text}"
            )
    return "\n".join(lines)
