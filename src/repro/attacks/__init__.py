"""Attack simulations: static patching, Wurster I-cache, restore, replace."""

from .demo import tamper_chain_gadget
from .harness import AttackOutcome, evaluate_attack, run_tampered, score_run
from .patching import (
    AttackError,
    corrupt_byte,
    find_branches_in_function,
    force_branch,
    invert_branch,
    nop_out,
    nop_out_instruction,
    stub_out_function,
)
from .replace import (
    garbage_chain_patch,
    reconstruct_function_patch,
    wipe_chain_patch,
)

__all__ = [
    "AttackOutcome", "evaluate_attack", "run_tampered", "score_run",
    "AttackError", "corrupt_byte", "find_branches_in_function", "force_branch",
    "invert_branch", "nop_out", "nop_out_instruction", "stub_out_function",
    "garbage_chain_patch", "reconstruct_function_patch", "wipe_chain_patch",
    "tamper_chain_gadget",
]
