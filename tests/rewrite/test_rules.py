"""The §IV-B rewriting rules."""

import pytest

from repro.rewrite import (
    ImmediateSplitter, RewriteEngine, plant_ret_byte, plant_ret_byte_add,
)
from repro.rewrite.fieldsearch import best_field_gadget, coverage_for_fields
from repro.x86 import Assembler, EAX, EBX, ECX, Imm
from repro.binary import BinaryImage, Perm, Section


def image_of(code):
    img = BinaryImage("t")
    img.add_section(Section(".text", 0x1000, code, Perm.RX))
    return img


class TestPlanting:
    def test_plant_ret_byte_xor(self):
        for value in (0, 0x12345678, 0xFFFFFFFF):
            for index in range(4):
                planted, diff = plant_ret_byte(value, index)
                assert planted ^ diff == value
                assert (planted >> (8 * index)) & 0xFF == 0xC3

    def test_plant_ret_byte_add(self):
        for value in (0, 0x12345678, 0xFFFFFFFF):
            for index in range(4):
                planted, comp = plant_ret_byte_add(value, index)
                assert (planted + comp) & 0xFFFFFFFF == value
                assert (planted >> (8 * index)) & 0xFF == 0xC3


class TestImmediateSplitter:
    def test_semantics_preserved(self):
        from repro.corpus import builders
        from repro.ropc.interpreter import Interpreter, IRMemory
        original = builders.mix32()
        split = ImmediateSplitter().transform(original)
        for x in (0, 1, 0xDEADBEEF):
            assert (
                Interpreter().run(original, [x]) == Interpreter().run(split, [x])
            )

    def test_planted_bytes_present_in_binary(self):
        from repro.corpus import builders
        from repro.ropc import compile_functions
        split = ImmediateSplitter().transform(builders.checksum_words())
        code, spans, _ = compile_functions([split], base=0x1000, entry_main=None)
        # every split Const now carries a 0xc3 in its imm32
        assert code.count(0xC3) > 3


class TestFieldSearch:
    def test_best_field_gadget_in_mov_imm(self):
        a = Assembler(base=0x1000)
        a.pop(EBX)                      # decodable prefix material
        a.mov(EAX, Imm(0x11223344, 32))
        a.ret()
        code = a.assemble()
        # field = the imm32 of the mov (offset 2..5)
        crafted = best_field_gadget(code, 0x1000, 2, 4)
        assert crafted is not None
        assert max(crafted.planted.values()) == 0xC3

    def test_shared_decodes_find_the_same_gadgets(self, monkeypatch):
        # One decode dict shared by the fields of a section gives each
        # field the gadget its own search finds, and decodes each offset
        # at most once.
        from repro.corpus import build_gzip
        from repro.rewrite import fieldsearch

        text = build_gzip().image.section(".text")
        data, base = bytes(text.data), text.vaddr
        fields = [(start, 4) for start in range(1, len(data) - 4, 97)]
        alone = [best_field_gadget(data, base, s, w) for s, w in fields]
        offsets = []
        decode = fieldsearch.decode

        def counted(code, pos, address):
            offsets.append(pos)
            return decode(code, pos, address=address)

        monkeypatch.setattr(fieldsearch, "decode", counted)
        decoded = {}
        for (start, width), own in zip(fields, alone):
            shared = best_field_gadget(data, base, start, width, decoded=decoded)
            assert (own is None) == (shared is None)
            if own is not None:
                assert own.planted == shared.planted
                assert [i.text() for i in own.gadget.instructions] == [
                    i.text() for i in shared.gadget.instructions
                ]
        assert any(alone)
        assert offsets and len(offsets) == len(set(offsets)) == len(decoded)

    def test_analysis_decodes_each_offset_once(self, monkeypatch):
        # One pass per section: one gadget scan, split by far into the
        # near and far lists, and one decode table shared by every field
        # search and by both rules' field-composition coverage.
        from repro.corpus import build_gzip
        from repro.gadgets.finder import find_gadgets_in_bytes
        from repro.rewrite import fieldsearch
        from repro.rewrite.rules import existing

        image = build_gzip().image
        sections = image.executable_sections()
        decoded, scanned = [], []
        decode, scan = fieldsearch.decode, existing.find_gadgets_in_bytes

        def counted_decode(code, pos, address):
            decoded.append(address)
            return decode(code, pos, address=address)

        def counted_scan(data, base, **kwargs):
            scanned.append(base)
            return scan(data, base=base, **kwargs)

        monkeypatch.setattr(fieldsearch, "decode", counted_decode)
        monkeypatch.setattr(existing, "find_gadgets_in_bytes", counted_scan)
        result = RewriteEngine().analyze(image)
        assert decoded and len(decoded) == len(set(decoded))
        assert sorted(scanned) == sorted(s.vaddr for s in sections)

        def key(gadget):
            return gadget.address, gadget.far, [i.text() for i in gadget.instructions]

        scan_all = [
            key(g) for s in sections
            for g in find_gadgets_in_bytes(bytes(s.data), base=s.vaddr)
        ]
        assert [key(g) for g in result.existing_gadgets] == [
            k for k in scan_all if not k[1]
        ]
        assert [key(g) for g in result.far_gadgets] == [k for k in scan_all if k[1]]
        assert result.existing_gadgets and result.far_gadgets

    def test_coverage_bridges_across_fields(self):
        # Two adjacent mov-imm32s: a consumer byte planted at the end of
        # the first field swallows the second mov's opcode, landing in
        # the second field, where the ret is planted.  Coverage then
        # spans both instructions.
        a = Assembler(base=0x1000)
        a.mov(EBX, Imm(0x11111111, 32))   # field at 1..4
        a.mov(EAX, Imm(0x22222222, 32))   # field at 6..9
        a.ret()
        code = a.assemble()
        covered, candidates = coverage_for_fields(
            code, 0x1000, [(1, 4), (6, 4)]
        )
        assert {1, 4, 5, 6, 9} <= covered   # both fields + the gap opcode
        best = max(candidates, key=lambda c: c.length)
        assert best.length >= 9


class TestEngine:
    @pytest.fixture(scope="class")
    def analysis(self):
        from repro.corpus import build_gzip
        program = build_gzip(blocks=1, positions=4)
        return RewriteEngine().analyze(program.image)

    def test_rule_ranges_match_paper_shape(self, analysis):
        report = analysis.report
        assert 2.0 < report.percent("existing_near_ret") < 10.0
        assert report.percent("far_ret") <= 2.0
        assert 30.0 < report.percent("immediate_mod") < 75.0
        assert report.percent("jump_mod") > 3.0
        assert 40.0 < report.percent_any() < 95.0

    def test_candidates_synthetic(self, analysis):
        assert all(c.gadget.synthetic for c in analysis.immediate_candidates)
        assert all(c.gadget.synthetic for c in analysis.jump_candidates)

    def test_protect_instructions_mapping(self, analysis):
        engine = RewriteEngine()
        image = analysis.image
        sym = image.symbols["checksum_words"]
        addrs = list(range(sym.vaddr, sym.vaddr + sym.size))
        protection = engine.protect_instructions(image, addrs[:20])
        assert protection  # at least some bytes protectable

    def test_select_non_conflicting(self, analysis):
        chosen = RewriteEngine.select_non_conflicting(analysis.immediate_candidates)
        taken = set()
        for candidate in chosen:
            span = range(candidate.insn.address, candidate.insn.address + candidate.insn.length)
            assert not any(b in taken for b in span)
            taken.update(span)
