"""End-to-end reproduction of the paper's security claims."""

import pytest

from repro.attacks import (
    evaluate_attack,
    nop_out,
    run_tampered,
    stub_out_function,
)
from repro.baselines import ChecksummedProgram
from repro.binary import Patch
from repro.core import Parallax, ProtectConfig
from repro.corpus import build_gzip

COLD_FUNCTION = "gz_fill_005"


@pytest.fixture(scope="module")
def setting():
    program = build_gzip(blocks=2, positions=6)
    goal = program.run()
    cold = program.image.symbols[COLD_FUNCTION]
    parallax = Parallax(
        ProtectConfig(
            strategy="cleartext",
            verification_functions=["digest_gzip"],
            protect_addresses=list(range(cold.vaddr, cold.end)),
        )
    ).protect(program)
    checksummed = ChecksummedProgram(build_gzip(blocks=2, positions=6), guards=3)
    return program, goal, parallax, checksummed


def cold_patch(image, protected=None):
    symbol = image.symbols[COLD_FUNCTION]
    if protected is not None:
        addr = next(
            a
            for a in protected.report.chains[0].gadget_addresses
            if symbol.vaddr <= a < symbol.end
        )
    else:
        addr = symbol.vaddr + 8
    old = image.read(addr, 1)
    return Patch(addr, old, bytes([old[0] ^ 0xFF]))


def test_cold_tamper_invisible_without_protection(setting):
    program, goal, _, _ = setting
    outcome = evaluate_attack(
        program.image, [cold_patch(program.image)], goal, "plain"
    )
    assert not outcome.detected


def test_checksumming_detects_static_but_not_wurster(setting):
    _, goal, _, checksummed = setting
    patch = cold_patch(checksummed.image)
    static = evaluate_attack(checksummed.image, [patch], goal, "csum")
    assert static.detected and static.run.exit_status == 66
    wurster = evaluate_attack(
        checksummed.image, [patch], goal, "csum", code_view=True
    )
    assert not wurster.detected  # the Wurster result


def test_parallax_detects_both(setting):
    _, goal, parallax, _ = setting
    patch = cold_patch(parallax.image, parallax)
    static = evaluate_attack(parallax.image, [patch], goal, "parallax")
    assert static.detected
    wurster = evaluate_attack(
        parallax.image, [patch], goal, "parallax", code_view=True
    )
    assert wurster.detected  # immune to the i-cache split


def test_restore_attack_window(setting):
    """§VI-A: a fast restore wins; a slow one overlaps a chain run."""
    _, goal, parallax, _ = setting
    patch = cold_patch(parallax.image, parallax)
    trigger = parallax.image.entry

    fast = run_tampered(
        parallax.image, [patch], trigger=trigger, restore_after_steps=50
    ).run
    assert not fast.crashed and fast.stdout == goal.stdout

    slow = run_tampered(
        parallax.image, [patch], trigger=trigger,
        restore_after_steps=10_000_000,
    ).run
    assert slow.crashed or slow.stdout != goal.stdout


def test_reconstruction_attack_is_the_admitted_limit(setting):
    """§VI-B: fully re-creating the verification function natively works
    (and silently removes the protection) — the reason the paper layers
    checksumming over the data-resident chains."""
    from repro.attacks import reconstruct_function_patch

    _, goal, parallax, _ = setting
    patch = reconstruct_function_patch(parallax, "digest_gzip")
    outcome = evaluate_attack(parallax.image, [patch], goal, "reconstruct")
    assert not outcome.detected
