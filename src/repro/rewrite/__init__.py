"""Binary rewriting: the §IV-B rules, coverage measurement, application.

Rule 4, spurious instructions (§IV-B4), has no analysis here.  Gadget
fragments can always be inserted as extra instructions whose side
effects do not change program semantics, at the cost of a small
slowdown in the protected code; the rule covers 100% by construction,
which is why the paper's Fig. 6 shows no numbers for it.  Our concrete
embodiment is the standard-gadget-set insertion
(:func:`repro.ropc.standard.emit_standard_gadgets`): whole gadgets
placed in a fresh executable section, reachable only via the chain.
"""

from .apply import ImmediateSplitter, plant_ret_byte, plant_ret_byte_add
from .engine import AnalysisResult, RewriteEngine
from .report import (
    FIG6_RULES,
    ProtectabilityReport,
    RULE_ANY,
    RULE_FAR,
    RULE_IMM,
    RULE_JUMP,
    RULE_NEAR,
    RuleCoverage,
    format_fig6_table,
)
from .rules import ImmediateCandidate, JumpCandidate

__all__ = [
    "ImmediateSplitter", "plant_ret_byte", "plant_ret_byte_add",
    "AnalysisResult", "RewriteEngine",
    "FIG6_RULES", "ProtectabilityReport", "RuleCoverage",
    "RULE_ANY", "RULE_FAR", "RULE_IMM", "RULE_JUMP", "RULE_NEAR",
    "format_fig6_table",
    "ImmediateCandidate", "JumpCandidate",
]
