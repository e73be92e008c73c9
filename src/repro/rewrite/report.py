"""Protectability accounting (Fig. 6 bookkeeping).

A *protectable code byte* is "an instruction byte for which we can craft
an overlapping gadget using one of the rewriting rules" (§VII-A).  Each
rule reports the set of byte addresses its candidate gadgets span;
coverage percentages are over all executable-section bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

#: Canonical rule names, in the paper's Fig. 6 legend order.
RULE_NEAR = "existing_near_ret"
RULE_FAR = "far_ret"
RULE_IMM = "immediate_mod"
RULE_JUMP = "jump_mod"
RULE_ANY = "any"

FIG6_RULES = (RULE_NEAR, RULE_FAR, RULE_IMM, RULE_JUMP)


class RuleCoverage:
    """Byte-address set covered by one rule's candidates."""

    def __init__(self, rule: str):
        self.rule = rule
        self.bytes: Set[int] = set()
        self.candidates: List = []

    def add_span(self, span: Iterable[int], candidate=None) -> None:
        self.bytes.update(span)
        if candidate is not None:
            self.candidates.append(candidate)

    def __len__(self) -> int:
        return len(self.bytes)


class ProtectabilityReport:
    """Fig. 6 row for one program."""

    def __init__(self, program: str, total_code_bytes: int):
        self.program = program
        self.total_code_bytes = total_code_bytes
        self.coverage: Dict[str, RuleCoverage] = {}

    def rule(self, name: str) -> RuleCoverage:
        if name not in self.coverage:
            self.coverage[name] = RuleCoverage(name)
        return self.coverage[name]

    def percent(self, rule: str) -> float:
        if self.total_code_bytes == 0:
            return 0.0
        return 100.0 * len(self.rule(rule).bytes) / self.total_code_bytes

    def any_bytes(self) -> Set[int]:
        out: Set[int] = set()
        for name in FIG6_RULES:
            if name in self.coverage:
                out |= self.coverage[name].bytes
        return out

    def percent_any(self) -> float:
        if self.total_code_bytes == 0:
            return 0.0
        return 100.0 * len(self.any_bytes()) / self.total_code_bytes

    def __repr__(self) -> str:
        cells = " ".join(
            f"{name}={self.percent(name):.1f}%" for name in FIG6_RULES
        )
        return (
            f"<Protectability {self.program}: {cells} "
            f"any={self.percent_any():.1f}%>"
        )


def format_fig6_table(reports: List[ProtectabilityReport]) -> str:
    """Render reports as the Fig. 6 table."""
    header = (
        f"{'program':<8} {'near-ret%':>10} {'far-ret%':>9} "
        f"{'imm-mod%':>9} {'jump-mod%':>10} {'any%':>6}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        lines.append(
            f"{report.program:<8} "
            f"{report.percent(RULE_NEAR):>10.1f} "
            f"{report.percent(RULE_FAR):>9.1f} "
            f"{report.percent(RULE_IMM):>9.1f} "
            f"{report.percent(RULE_JUMP):>10.1f} "
            f"{report.percent_any():>6.1f}"
        )
    if reports:
        avg = sum(r.percent_any() for r in reports) / len(reports)
        lines.append(f"{'average':<8} {'':>10} {'':>9} {'':>9} {'':>10} {avg:>6.1f}")
    return "\n".join(lines)
