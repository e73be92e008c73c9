"""Attack primitives and the harness."""

import pytest

from repro.attacks import (
    evaluate_attack, force_branch, invert_branch, nop_out,
    nop_out_instruction, stub_out_function, wipe_chain_patch,
    garbage_chain_patch, run_tampered,
)
from repro.x86 import decode


def test_stub_out_function_patch(small_wget):
    patch = stub_out_function(small_wget.image, "ptrace_detect", 1)
    assert patch.new[0] == 0xB8 and patch.new[5] == 0xC3


def test_invert_and_force_branch(small_wget):
    from repro.attacks import find_branches_in_function
    branches = find_branches_in_function(small_wget.image, "main")
    assert branches
    branch = branches[0]
    inverted = invert_branch(small_wget.image, branch.address)
    insn = decode(inverted.new, 0)
    assert insn.is_conditional and insn.mnemonic != branch.mnemonic
    forced = force_branch(small_wget.image, branch.address)
    insn2 = decode(forced.new, 0, address=branch.address)
    assert insn2.mnemonic == "jmp"
    assert insn2.branch_target() == branch.branch_target()


def test_antidebug_crack_succeeds_on_unprotected(small_wget, small_wget_baseline):
    """Without Parallax the classic crack works: the program runs
    normally under a debugger."""
    patch = stub_out_function(small_wget.image, "ptrace_detect", 1)
    outcome = evaluate_attack(
        small_wget.image, [patch], small_wget_baseline,
        "crack-unprotected", debugger_attached=True,
    )
    assert not outcome.detected  # attacker wins


def test_tampering_used_gadget_detected(protected_wget_cleartext, small_wget_baseline):
    """Overwriting a byte of a gadget the chain uses must break it."""
    record = protected_wget_cleartext.report.chains[0]
    image = protected_wget_cleartext.image
    target = next(a for a in record.gadget_addresses if image.section_at(a).name != ".gadgets")
    patch = nop_out(image, target, 1)
    outcome = evaluate_attack(image, [patch], small_wget_baseline, "gadget-tamper")
    assert outcome.detected


def test_wipe_chain_detected(protected_wget_cleartext, small_wget_baseline):
    patch = wipe_chain_patch(protected_wget_cleartext)
    outcome = evaluate_attack(
        protected_wget_cleartext.image, [patch], small_wget_baseline, "wipe"
    )
    assert outcome.detected


def test_garbage_chain_detected(protected_wget_cleartext, small_wget_baseline):
    patch = garbage_chain_patch(protected_wget_cleartext)
    outcome = evaluate_attack(
        protected_wget_cleartext.image, [patch], small_wget_baseline, "garbage"
    )
    assert outcome.detected


def test_icache_patch_changes_execution_only(small_wget):
    """Sanity: the Wurster primitive affects fetch, not data reads."""
    patch = stub_out_function(small_wget.image, "ptrace_detect", 1)
    run = run_tampered(
        small_wget.image, [patch], code_view=True, debugger_attached=True
    ).run
    assert run.exit_status != 99  # crack took effect via the i-view
