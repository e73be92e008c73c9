"""§VI-C chain guards — the paper's proposed future work, implemented.

Verification chains live in data memory, so they can be protected by
traditional checksumming *without* exposure to the Wurster attack (the
attack splits the I-view from the D-view; the guarded bytes are only
ever read as data).
"""

import pytest

from repro.attacks import run_tampered
from repro.binary import Patch
from repro.core import Parallax, ProtectConfig
from repro.emu import run_image


@pytest.fixture(scope="module", params=["cleartext", "xor", "rc4", "linear"])
def guarded(request, small_wget):
    config = ProtectConfig(
        strategy=request.param,
        verification_functions=["digest_wget"],
        guard_chains=True,
    )
    return Parallax(config).protect(small_wget)


def _chain_blob_section(image):
    return (
        image.section(".ropcenc")
        if image.has_section(".ropcenc")
        else image.section(".ropchains")
    )


def test_guarded_behaviour_preserved(guarded, small_wget_baseline):
    result = guarded.run()
    assert not result.crashed
    assert result.stdout == small_wget_baseline.stdout


def test_guard_detects_chain_tampering(guarded):
    image = guarded.image.clone()
    section = _chain_blob_section(image)
    section.data[3] ^= 0xFF
    result = run_image(image)
    assert result.exit_status == 66  # the guard's tamper response


def test_guard_detects_decryptor_tampering(guarded):
    image = guarded.image.clone()
    section = image.section(".parallaxrt")
    section.data[40] ^= 0xFF
    result = run_image(image)
    assert result.crashed or result.exit_status == 66


def test_guard_immune_to_wurster(guarded):
    """The point of §VI-C: an I-view patch of the guarded DATA bytes is
    irrelevant — the data view (what the guard reads AND what the
    decryptor consumes) is untouched, so the program runs correctly."""
    image = guarded.image
    section = _chain_blob_section(image)
    old = image.read(section.vaddr + 3, 1)
    patch = Patch(section.vaddr + 3, old, bytes([old[0] ^ 0xFF]))
    run = run_tampered(image, [patch], code_view=True).run
    assert not run.crashed
    assert run.exit_status != 66


def test_guard_note_in_report(guarded):
    assert any("VI-C" in note for note in guarded.report.notes)
