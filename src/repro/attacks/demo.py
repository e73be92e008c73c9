"""The tamper demo: corrupt one byte of a verification-chain gadget.

``repro attack`` and the serve ``attack-matrix`` job both run it, so
they pick the same target and score it the same way.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..emu import RunResult
from .harness import AttackOutcome, evaluate_attack
from .patching import corrupt_byte


def tamper_chain_gadget(
    protected, goal: RunResult, engine: Optional[str] = None
) -> Tuple[int, AttackOutcome, AttackOutcome]:
    """Corrupt the first ``.text`` gadget of ``protected``'s first chain.

    The byte is tampered twice: patched into the image (``static``) and
    into the instruction view only (``wurster``).  Each run is scored
    against ``goal``, the pristine run, on ``engine``.  Returns
    ``(target, static, wurster)``; Parallax should detect both.
    """
    image = protected.image
    target = next(
        addr
        for addr in protected.report.chains[0].gadget_addresses
        if image.section_at(addr).name == ".text"
    )
    patch = corrupt_byte(image, target)
    static = evaluate_attack(image, [patch], goal, "static", engine=engine)
    wurster = evaluate_attack(
        image, [patch], goal, "wurster", code_view=True, engine=engine
    )
    return target, static, wurster
