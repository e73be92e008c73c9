"""One tamper driver: every way of landing a tamper, on every engine.

Static, Wurster and code-restore tampers all go through
:func:`repro.attacks.run_tampered`, which pauses the run with
``Emulator.advance`` and finishes it in ``Emulator.run`` on the
caller's engine.  Each attack must score identically on every engine
in :data:`repro.emu.ENGINES`: the same outcome, latency stamps
included, and the same run.
"""

import pytest

from repro.attacks import evaluate_attack
from repro.attacks.patching import corrupt_byte
from repro.emu import ENGINES
from repro.telemetry import telemetry_session


@pytest.fixture(scope="module")
def gadget_patch(protected_wget_cleartext):
    image = protected_wget_cleartext.image
    target = next(
        a for a in protected_wget_cleartext.report.chains[0].gadget_addresses
        if image.section_at(a).name == ".text"
    )
    return corrupt_byte(image, target)


#: attack -> (driver keywords, trigger function name or None, detected)
ATTACKS = {
    "static": ({}, None, True),
    "wurster": ({"code_view": True}, None, True),
    # landed as the chain starts, restored after it ran: caught
    "restore_lazy": ({"restore_after_steps": 300}, "digest_wget", True),
    "wurster_restore": (
        {"code_view": True, "restore_after_steps": 300}, "digest_wget", True,
    ),
    # landed and restored between two chain runs: missed
    "restore_fast": ({"restore_after_steps": 300}, "checksum_words", False),
}


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attack_is_identical_on_every_engine(
    protected_wget_cleartext, small_wget_baseline, gadget_patch, attack
):
    tamper, trigger, detected = ATTACKS[attack]
    image = protected_wget_cleartext.image
    if trigger is not None:
        tamper = dict(tamper, trigger=image.symbols[trigger].vaddr)
    signatures = {}
    for engine in ENGINES:
        outcome = evaluate_attack(
            image, [gadget_patch], small_wget_baseline, attack,
            engine=engine, **tamper,
        )
        run = outcome.run
        signatures[engine] = (
            outcome.to_dict(),
            (run.exit_status, run.steps, run.cycles, run.stdout),
        )
        assert outcome.detected is detected
        if trigger is None:
            assert outcome.tamper_cycles == 0
        else:
            assert outcome.tamper_cycles > 0
        if not detected:
            # the tampered bytes never ran while tampered
            assert outcome.corruption_cycles is None
    assert len(set(map(repr, signatures.values()))) == 1, signatures


def test_paused_run_is_counted_whole(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    """A restore run executes its trigger prefix and its window outside
    ``Emulator.run``; the run's telemetry still counts every step."""
    image = protected_wget_cleartext.image
    with telemetry_session(metrics=True, tracing=False) as (metrics, _):
        outcome = evaluate_attack(
            image, [gadget_patch], small_wget_baseline, "restore",
            trigger=image.symbols["checksum_words"].vaddr,
            restore_after_steps=300,
        )
        samples = metrics.to_dict()
    assert outcome.tamper_cycles > 0
    assert samples["emu.runs"]["value"] == 1
    assert samples["emu.instructions"]["value"] == outcome.run.steps
    assert samples["emu.cycles"]["value"] == outcome.run.cycles
