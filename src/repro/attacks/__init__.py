"""Attack simulations: static patching, Wurster I-cache, restore, replace."""

from .demo import tamper_chain_gadget
from .harness import AttackOutcome, evaluate_patch_attack, score_run
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
from .restore import evaluate_restore_attack, run_with_restore_attack
from .wurster import evaluate_wurster_attack, run_with_icache_patches

__all__ = [
    "AttackOutcome", "evaluate_patch_attack", "score_run",
    "AttackError", "corrupt_byte", "find_branches_in_function", "force_branch",
    "invert_branch", "nop_out", "nop_out_instruction", "stub_out_function",
    "garbage_chain_patch", "reconstruct_function_patch", "wipe_chain_patch",
    "evaluate_restore_attack", "run_with_restore_attack",
    "evaluate_wurster_attack", "run_with_icache_patches",
    "tamper_chain_gadget",
]
