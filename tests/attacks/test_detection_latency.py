"""Tamper-detection-latency stamps: the dynamic half of the observatory.

Every detected attack must carry a finite ``cycles_to_detection``; the
stamps must be identical under both emulator engines; and the latency
histograms must land in the metrics registry per attack x rewrite-rule
cell.
"""

import pytest

from repro.attacks import evaluate_attack
from repro.attacks.patching import corrupt_byte
from repro.binary import Patch
from repro.telemetry import telemetry_session


@pytest.fixture(scope="module")
def gadget_patch(protected_wget_cleartext):
    image = protected_wget_cleartext.image
    target = next(
        a for a in protected_wget_cleartext.report.chains[0].gadget_addresses
        if image.section_at(a).name == ".text"
    )
    return corrupt_byte(image, target)


def test_static_patch_latency_is_finite(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    outcome = evaluate_attack(
        protected_wget_cleartext.image, [gadget_patch],
        small_wget_baseline, "static",
    )
    assert outcome.detected
    assert outcome.tamper_cycles == 0  # tampered before entry
    assert outcome.cycles_to_detection is not None
    assert outcome.cycles_to_detection > 0
    # the tampered gadget executed, and no later than the failure
    assert outcome.cycles_to_corruption is not None
    assert 0 < outcome.cycles_to_corruption <= outcome.cycles_to_detection


def test_wurster_patch_latency_is_finite(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    outcome = evaluate_attack(
        protected_wget_cleartext.image, [gadget_patch],
        small_wget_baseline, "wurster", code_view=True,
    )
    assert outcome.detected
    assert outcome.tamper_cycles == 0
    assert outcome.cycles_to_detection is not None
    assert outcome.cycles_to_corruption is not None
    assert outcome.cycles_to_corruption <= outcome.cycles_to_detection


def test_stamps_identical_under_both_engines(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    stamps = {}
    for engine in ("step", "block"):
        outcome = evaluate_attack(
            protected_wget_cleartext.image, [gadget_patch],
            small_wget_baseline, "static", engine=engine,
        )
        assert outcome.detected
        stamps[engine] = (
            outcome.tamper_cycles,
            outcome.corruption_cycles,
            outcome.detection_cycles,
        )
    assert stamps["step"] == stamps["block"]


def test_undetected_attack_has_no_detection_latency(
    small_wget, small_wget_baseline
):
    from repro.attacks import stub_out_function

    patch = stub_out_function(small_wget.image, "ptrace_detect", 1)
    outcome = evaluate_attack(
        small_wget.image, [patch], small_wget_baseline,
        "crack", debugger_attached=True,
    )
    assert not outcome.detected
    assert outcome.detection_cycles is None
    assert outcome.cycles_to_detection is None
    # the stubbed function still ran, so corruption was observed
    assert outcome.corruption_cycles is not None


def test_restore_attack_stamps_tamper_midrun(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    image = protected_wget_cleartext.image
    # never restoring == static attack from the trigger onwards: caught
    outcome = evaluate_attack(
        image, [gadget_patch], small_wget_baseline, "code_restore",
        trigger=image.entry, restore_after_steps=10**9,
    )
    assert outcome.detected
    assert outcome.tamper_cycles is not None
    assert outcome.cycles_to_detection is not None
    assert outcome.cycles_to_detection >= 0


def test_fast_restore_window_leaves_no_corruption(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    """A tamper window too small to overlap a chain call: undetected,
    and the tampered gadget never executed while corrupt."""
    image = protected_wget_cleartext.image
    outcome = evaluate_attack(
        image, [gadget_patch], small_wget_baseline, "code_restore",
        trigger=image.entry, restore_after_steps=5,
    )
    assert not outcome.detected
    assert outcome.corruption_cycles is None
    assert outcome.cycles_to_detection is None


def test_latency_histograms_per_attack_rule_cell(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    with telemetry_session(metrics=True, tracing=False) as (metrics, _):
        outcome = evaluate_attack(
            protected_wget_cleartext.image, [gadget_patch],
            small_wget_baseline, "static", rule="existing_near_ret",
        )
        assert outcome.detected
        samples = metrics.to_dict()
    overall = samples["attacks.cycles_to_detection"]
    assert overall["count"] == 1
    assert overall["sum"] == outcome.cycles_to_detection
    cell = samples[
        'attacks.cycles_to_detection{attack="static",rule="existing_near_ret"}'
    ]
    assert cell["count"] == 1
    assert (
        'attacks.cycles_to_corruption{attack="static",rule="existing_near_ret"}'
        in samples
    )


def test_outcome_to_dict_round_trips(
    protected_wget_cleartext, small_wget_baseline, gadget_patch
):
    outcome = evaluate_attack(
        protected_wget_cleartext.image, [gadget_patch],
        small_wget_baseline, "static",
    )
    payload = outcome.to_dict()
    assert payload["attack"] == "static"
    assert payload["detected"] is True
    assert payload["tamper_cycles"] == 0
    assert payload["cycles_to_detection"] == outcome.cycles_to_detection
    assert payload["cycles_to_corruption"] == outcome.cycles_to_corruption
