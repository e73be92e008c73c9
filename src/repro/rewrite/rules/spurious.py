"""Rule 4: spurious instructions (§IV-B4).

Gadget fragments can always be inserted as extra instructions whose
side effects do not change program semantics — at the cost of a small
slowdown in the protected code itself, which is why the rule is a last
resort (and why the paper's Fig. 6 shows no numbers for it: it covers
100% by construction).

Our concrete embodiment is the standard-gadget-set insertion
(:func:`repro.ropc.standard.emit_standard_gadgets`): whole gadgets
placed in a fresh executable section, reachable only via the chain (the
degenerate case of spurious instructions placed out of line, with zero
runtime cost to the protected code).
"""

from __future__ import annotations


class SpuriousInstructionRule:
    """Plans insertion of gadget-bearing spurious instructions."""

    name = "spurious"

    @staticmethod
    def coverage_percent() -> float:
        """The rule applies everywhere — by definition (§IV-B4)."""
        return 100.0
