"""The rewriting engine: run every rule, build reports and gadget pools.

:meth:`RewriteEngine.analyze` is one pass per executable section: one
gadget scan (split into near and far gadgets), one instruction listing
driven through both field rules' predicates, and one decode table
shared by every field search of the section.

§VII-A: "it is not necessarily possible to protect all potentially
protectable code bytes at once, since the required modifications may
conflict" — the engine detects such conflicts when asked to select an
applicable subset (two candidates conflict when their byte patches
overlap or when they modify the same instruction).
"""

from __future__ import annotations

from typing import Dict, List

from ..binary.image import BinaryImage
from ..gadgets.catalog import GadgetCatalog
from ..telemetry import get_metrics, get_recorder, get_tracer
from ..x86.decoder import decode_all
from .fieldsearch import best_field_gadget, coverage_for_fields
from .report import (
    ProtectabilityReport,
    RULE_FAR,
    RULE_IMM,
    RULE_JUMP,
    RULE_NEAR,
)
from .rules import (
    ImmediateCandidate,
    JumpCandidate,
    existing_gadgets,
    immediate_field_width,
    jump_field_width,
)


class AnalysisResult:
    """Everything the rules found for one image."""

    def __init__(self, image: BinaryImage, report: ProtectabilityReport):
        self.image = image
        self.report = report
        self.existing_gadgets: List = []
        self.far_gadgets: List = []
        self.immediate_candidates: List = []
        self.jump_candidates: List = []

    def catalog(self) -> GadgetCatalog:
        """Catalog of gadgets present in the binary *right now*
        (existing near/far; candidates are not yet real)."""
        return GadgetCatalog(self.existing_gadgets + self.far_gadgets)


class RewriteEngine:
    """Runs the §IV-B rule set over a binary image."""

    def analyze(self, image: BinaryImage) -> AnalysisResult:
        """Measure protectability (the Fig. 6 computation)."""
        with get_tracer().span("analyze", image=image.name) as span:
            report = ProtectabilityReport(image.name, image.code_bytes())
            result = AnalysisResult(image, report)
            data_ranges = [
                (sec.vaddr, sec.end) for sec in image.sections if not sec.executable
            ]
            # (rule, field width of an instruction, candidate class, found)
            field_rules = (
                (RULE_IMM, immediate_field_width, ImmediateCandidate,
                 result.immediate_candidates),
                (RULE_JUMP, lambda insn: jump_field_width(insn, data_ranges),
                 JumpCandidate, result.jump_candidates),
            )
            # Field-composition coverage (fieldsearch.coverage_for_fields)
            # of every section, reported after the rules' own candidates.
            spans: Dict[str, List] = {RULE_IMM: [], RULE_JUMP: []}
            for section in image.executable_sections():
                data = bytes(section.data)
                base = section.vaddr
                near, far = existing_gadgets(data, base)
                result.existing_gadgets += near
                result.far_gadgets += far
                decoded: Dict = {}
                fields: Dict[str, List] = {RULE_IMM: [], RULE_JUMP: []}
                for insn in decode_all(data, address=base, stop_on_error=True):
                    for rule, width_of, make, found in field_rules:
                        width = width_of(insn)
                        if width is None:
                            continue
                        start = insn.address - base + insn.imm_offset
                        fields[rule].append((start, width))
                        crafted = best_field_gadget(
                            data, base, start, width, decoded=decoded
                        )
                        if crafted is not None:
                            crafted.gadget.provenance = rule
                            found.append(
                                make(insn, crafted, data[start:start + width])
                            )
                for rule, field_list in fields.items():
                    covered, anchors = coverage_for_fields(
                        data, base, field_list, decoded=decoded
                    )
                    report.rule(rule).bytes.update(base + off for off in covered)
                    spans[rule] += anchors
            for rule, gadgets in (
                (RULE_NEAR, result.existing_gadgets),
                (RULE_FAR, result.far_gadgets),
            ):
                for gadget in gadgets:
                    report.rule(rule).add_span(gadget.span(), candidate=gadget)
            for rule, _, _, found in field_rules:
                coverage = report.rule(rule)
                for candidate in found:
                    coverage.add_span(candidate.gadget.span(), candidate=candidate)
                coverage.candidates += spans[rule]
            metrics = get_metrics()
            for rule_name, hits in (
                ("existing_near", len(result.existing_gadgets)),
                ("far_return", len(result.far_gadgets)),
                ("immediate", len(result.immediate_candidates)),
                ("jump_offset", len(result.jump_candidates)),
            ):
                metrics.counter(f"rewrite.rule_hits.{rule_name}").inc(hits)
                span.set_attribute(rule_name, hits)
            metrics.counter("rewrite.analyses").inc()
            recorder = get_recorder()
            if recorder.enabled:
                recorder.record(
                    "rewrite",
                    image=image.name,
                    existing_near=len(result.existing_gadgets),
                    far_return=len(result.far_gadgets),
                    immediate=len(result.immediate_candidates),
                    jump_offset=len(result.jump_candidates),
                )
            return result

    # ------------------------------------------------------------------
    # Conflict-aware selection (for application)
    # ------------------------------------------------------------------

    @staticmethod
    def select_non_conflicting(candidates: List) -> List:
        """Greedy maximal subset of candidates with disjoint patches.

        Candidates are ranked by gadget length (longer = more protected
        bytes per modification).
        """
        chosen: List = []
        taken_bytes: set = set()
        for candidate in sorted(
            candidates, key=lambda c: -c.gadget.length
        ):
            addr = candidate.patch_addr
            insn_span = range(
                candidate.insn.address, candidate.insn.address + candidate.insn.length
            )
            if addr in taken_bytes or any(b in taken_bytes for b in insn_span):
                continue
            chosen.append(candidate)
            taken_bytes.update(insn_span)
        return chosen

    def classify_gadgets(self, image: BinaryImage) -> Dict[int, str]:
        """Map gadget addresses to the §IV-B rule family that yields them.

        Existing gadgets (near/far returns) are classified by what they
        are; candidate gadgets by the modification rule that would
        create them.  The coverage observatory uses this to attribute
        guarded bytes to rewrite rules.  When several rules can produce
        a gadget at the same address the Fig. 6 ordering (near, far,
        immediate, jump) wins — the cheapest rule is the attribution.
        """
        result = self.analyze(image)
        classes: Dict[int, str] = {}
        for rule_name, gadgets in (
            (RULE_JUMP, [c.gadget for c in result.jump_candidates]),
            (RULE_IMM, [c.gadget for c in result.immediate_candidates]),
            (RULE_FAR, result.far_gadgets),
            (RULE_NEAR, result.existing_gadgets),
        ):
            for gadget in gadgets:
                classes[gadget.address] = rule_name
        return classes

    def protect_instructions(
        self, image: BinaryImage, addresses: List[int]
    ) -> Dict[int, object]:
        """Map each requested instruction address to the candidate or
        existing gadget that would protect it, if any.

        This is the "walk through the list of instructions selected for
        protection" step of §III.
        """
        result = self.analyze(image)
        protection: Dict[int, object] = {}
        pools = (
            result.existing_gadgets
            + result.far_gadgets
            + [c.gadget for c in result.immediate_candidates]
            + [c.gadget for c in result.jump_candidates]
        )
        for addr in addresses:
            for gadget in pools:
                if addr in gadget.span():
                    best = protection.get(addr)
                    if best is None or gadget.length > best.length:
                        protection[addr] = gadget
        return protection
