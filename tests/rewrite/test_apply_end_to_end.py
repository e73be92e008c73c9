"""Applying the immediate rule end to end: split constants, rebuild the
program, confirm behaviour is preserved AND new gadgets exist where the
rule planted them."""

import pytest

from repro.corpus import build_gzip
from repro.corpus.program import Program
from repro.gadgets import find_gadgets_in_bytes
from repro.rewrite import ImmediateSplitter
from repro.ropc import ir


@pytest.fixture(scope="module")
def split_pair():
    original = build_gzip(blocks=1, positions=4)
    splitter = ImmediateSplitter(byte_index=0)
    functions = []
    for name, function in original.functions.items():
        if name == "checksum_words":
            functions.append(splitter.transform(function))
        else:
            clone = ir.IRFunction(name, function.params, list(function.body))
            functions.append(clone)
    rebuilt = Program(
        "gzip-split", functions, original.rodata, original.data,
        wide_immediates=original.wide_immediates, candidates=original.candidates,
    )
    return original, rebuilt


def test_split_program_behaviour_identical(split_pair):
    original, rebuilt = split_pair
    a, b = original.run(), rebuilt.run()
    assert not b.crashed
    assert a.stdout == b.stdout
    assert a.exit_status == b.exit_status


def test_split_function_grew_and_carries_ret_bytes(split_pair):
    original, rebuilt = split_pair
    before = original.image.symbols["checksum_words"]
    after = rebuilt.image.symbols["checksum_words"]
    assert after.size > before.size  # paper: splitting costs a little
    body = rebuilt.image.read(after.vaddr, after.size)
    assert body.count(0xC3) > original.image.read(
        before.vaddr, before.size
    ).count(0xC3)


def test_split_creates_new_gadgets(split_pair):
    original, rebuilt = split_pair

    def gadgets_in(program, name):
        symbol = program.image.symbols[name]
        data = program.image.read(symbol.vaddr, symbol.size)
        return find_gadgets_in_bytes(data, base=symbol.vaddr)

    assert len(gadgets_in(rebuilt, "checksum_words")) > len(
        gadgets_in(original, "checksum_words")
    )
