"""Regression matrix: every §IV-B rewriting rule × every attack class.

Each matrix row picks a chain gadget attributable to one rewriting
rule family; each column tampers with it through a different attack
from :mod:`repro.attacks`.  Every active cell must (a) corrupt the
chain — the protected program malfunctions — and (b) let the chain
tracer name the corrupted gadget (or the divergence point, for chain
replacement).

Rule families the current protector provably exercises (existing
near-ret gadgets in ``.text``, spurious inserted gadgets in
``.gadgets``) always run; families the chain does not currently draw
from (far rets, immediate- and jump-encoded gadgets) self-skip, so the
matrix tightens automatically if the protector starts using them.
"""

import struct

import pytest

from repro.attacks import run_tampered
from repro.attacks.patching import corrupt_byte
from repro.rewrite import RewriteEngine
from repro.rewrite.report import FIG6_RULES, RULE_FAR, RULE_IMM, RULE_JUMP, RULE_NEAR
from repro.telemetry import trace_chain_run

RULE_SPURIOUS = "spurious_insertion"
ALL_RULES = FIG6_RULES + (RULE_SPURIOUS,)


@pytest.fixture(scope="module")
def matrix(protected_wget_cleartext):
    """Chain gadgets of the protected image, keyed by rule family.

    Attribution: ``.gadgets`` addresses are the spurious insertions the
    protector emitted; ``.text`` addresses are classified against the
    rewrite engine's own per-rule pools on the protected image.
    """
    protected = protected_wget_cleartext
    image = protected.image
    record = protected.report.chains[0]
    analysis = RewriteEngine().analyze(image)
    near = {g.address for g in analysis.existing_gadgets}
    far = {g.address for g in analysis.far_gadgets}
    imm = {c.gadget.address for c in analysis.immediate_candidates}
    jump = {c.gadget.address for c in analysis.jump_candidates}

    targets = {}
    for addr in record.gadget_addresses:  # chain execution order
        section = image.section_at(addr).name
        if section == ".gadgets":
            targets.setdefault(RULE_SPURIOUS, addr)
            continue
        if section != ".text":
            continue
        if addr in imm:
            targets.setdefault(RULE_IMM, addr)
        elif addr in jump:
            targets.setdefault(RULE_JUMP, addr)
        elif addr in far:
            targets.setdefault(RULE_FAR, addr)
        elif addr in near:
            targets.setdefault(RULE_NEAR, addr)
    return {
        "protected": protected,
        "image": image,
        "record": record,
        "baseline": protected.run(),
        "targets": targets,
    }


def _target(matrix, rule):
    addr = matrix["targets"].get(rule)
    if addr is None:
        pytest.skip(f"chain uses no gadget attributable to rule {rule!r}")
    return addr


def _malfunctioned(result, baseline):
    return (
        result.crashed
        or result.stdout != baseline.stdout
        or result.exit_status != baseline.exit_status
    )


def test_matrix_covers_both_gadget_sources(matrix):
    """Meta-row: the matrix must never silently skip itself empty."""
    targets = matrix["targets"]
    assert RULE_NEAR in targets, "chain must use existing .text gadgets"
    assert RULE_SPURIOUS in targets, "chain must use inserted gadgets"
    assert len(targets) >= 2


@pytest.mark.parametrize("rule", ALL_RULES)
def test_static_patch_corrupts_and_is_attributed(matrix, rule):
    target = _target(matrix, rule)
    tampered = matrix["image"].clone()
    corrupt_byte(tampered, target).apply(tampered)
    result, tracer = trace_chain_run(tampered, matrix["record"])
    assert _malfunctioned(result, matrix["baseline"]), rule
    assert tracer.corrupted_gadget(result.fault) == target


@pytest.mark.parametrize("rule", ALL_RULES)
def test_wurster_patch_corrupts_and_is_attributed(matrix, rule):
    """Instruction-view-only tampering: data reads see original bytes."""
    target = _target(matrix, rule)
    patch = corrupt_byte(matrix["image"], target)
    result, tracer = trace_chain_run(
        matrix["image"], matrix["record"], code_patches=[patch]
    )
    assert _malfunctioned(result, matrix["baseline"]), rule
    assert tracer.corrupted_gadget(result.fault) == target


@pytest.mark.parametrize("rule", ALL_RULES)
def test_chain_word_replacement_diverges(matrix, rule):
    """§VI-B replacement aimed at one rule's gadget: rewrite the chain
    word that dispatches to it and watch the executed chain diverge."""
    target = _target(matrix, rule)
    image = matrix["image"]
    section = image.section(".ropchains")
    words = list(
        struct.unpack(f"<{len(section.data) // 4}I", bytes(section.data))
    )
    if target not in words:
        pytest.skip(f"no cleartext chain word dispatches to {target:#x}")
    tampered = image.clone()
    tampered.write(
        section.vaddr + words.index(target) * 4,
        struct.pack("<I", image.text.vaddr + 1),
    )
    result, tracer = trace_chain_run(tampered, matrix["record"])
    assert _malfunctioned(result, matrix["baseline"]), rule
    divergence = tracer.divergence(matrix["record"].gadget_addresses)
    assert divergence is not None


@pytest.mark.parametrize("rule", ALL_RULES)
def test_slow_restore_attack_is_caught(matrix, rule):
    """A restore window large enough to overlap a chain run = static."""
    target = _target(matrix, rule)
    image = matrix["image"]
    old = image.read(target, 1)
    patch = corrupt_byte(image, target)
    assert image.read(target, 1) == old  # corrupt_byte must not mutate
    result = run_tampered(
        image, [patch], trigger=image.entry, restore_after_steps=10**9
    ).run
    assert _malfunctioned(result, matrix["baseline"]), rule
