"""The tamper demo: corrupt one byte of a verification-chain gadget.

``repro attack`` and the serve ``attack-matrix`` job both run it, so
they pick the same target and score it the same way.
"""

from __future__ import annotations

from typing import Tuple

from ..emu import RunResult
from .harness import AttackOutcome, evaluate_patch_attack
from .patching import corrupt_byte
from .wurster import evaluate_wurster_attack


def tamper_chain_gadget(
    protected, goal: RunResult
) -> Tuple[int, AttackOutcome, AttackOutcome]:
    """Corrupt the first ``.text`` gadget of ``protected``'s first chain.

    The byte is tampered twice: patched into the image (``static``) and
    into the instruction view only (``wurster``).  Each run is scored
    against ``goal``, the pristine run.  Returns
    ``(target, static, wurster)``; Parallax should detect both.
    """
    image = protected.image
    target = next(
        addr
        for addr in protected.report.chains[0].gadget_addresses
        if image.section_at(addr).name == ".text"
    )
    patch = corrupt_byte(image, target)
    static = evaluate_patch_attack(image, [patch], goal, "static")
    wurster = evaluate_wurster_attack(image, [patch], goal, "wurster")
    return target, static, wurster
