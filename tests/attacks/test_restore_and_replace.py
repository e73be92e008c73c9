"""Code-restore and verification-replacement attack mechanics."""

import pytest

from repro.attacks import (
    garbage_chain_patch,
    reconstruct_function_patch,
    run_tampered,
    wipe_chain_patch,
)
from repro.binary import Patch
from repro.emu import run_image


def test_restore_attack_applies_and_reverts(protected_wget_cleartext,
                                            small_wget_baseline):
    protected = protected_wget_cleartext
    # pick a used in-text gadget byte
    image = protected.image
    addr = next(
        a for a in protected.report.chains[0].gadget_addresses
        if image.section_at(a).name == ".text"
    )
    old = image.read(addr, 1)
    patch = Patch(addr, old, bytes([old[0] ^ 0xFF]))

    # immediate restore: window too small to overlap a chain call
    fast = run_tampered(
        image, [patch], trigger=image.entry, restore_after_steps=5
    ).run
    assert not fast.crashed
    assert fast.stdout == small_wget_baseline.stdout

    # never restoring is equivalent to the static attack: caught
    slow = run_tampered(
        image, [patch], trigger=image.entry, restore_after_steps=10**9
    ).run
    assert slow.crashed or slow.stdout != small_wget_baseline.stdout


def test_reconstruction_patch_fits_and_runs(protected_wget_cleartext,
                                            small_wget_baseline):
    patch = reconstruct_function_patch(protected_wget_cleartext, "digest_wget")
    image = protected_wget_cleartext.image.clone()
    patch.apply(image)
    result = run_image(image)
    assert not result.crashed
    assert result.stdout == small_wget_baseline.stdout  # §VI-B limit


def test_wipe_and_garbage_patches_shape(protected_wget_cleartext):
    wipe = wipe_chain_patch(protected_wget_cleartext)
    assert set(wipe.new) == {0}
    garbage = garbage_chain_patch(protected_wget_cleartext)
    assert len(garbage.new) == len(garbage.old)
    assert garbage.new != garbage.old
