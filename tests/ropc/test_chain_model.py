"""Chain serialization mechanics."""

import random

import pytest

from repro.gadgets import Gadget, GadgetCatalog, GadgetKind, GadgetOp
from repro.ropc import RopChain, emit_standard_gadgets
from repro.ropc.chain import ChainError, MissingGadget
from repro.x86 import EAX


def test_serialize_requires_resolution():
    chain = RopChain()
    chain.gadget(GadgetKind(GadgetOp.LOAD_CONST, dst=EAX))
    chain.const(5)
    with pytest.raises(ChainError):
        chain.to_bytes(0x1000)


def test_labels_resolve_to_addresses():
    _code, gadgets = emit_standard_gadgets(
        [GadgetKind(GadgetOp.POP_ESP)], base=0x100
    )
    catalog = GadgetCatalog(gadgets)
    chain = RopChain()
    chain.gadget(GadgetKind(GadgetOp.POP_ESP))
    chain.label_ref("here")
    chain.label("here")
    payload = chain.resolve(catalog).to_bytes(0x2000)
    # word 0: gadget addr; word 1: address of "here" == end of chain
    assert int.from_bytes(payload[4:8], "little") == 0x2000 + 8


def test_delta_words():
    chain = RopChain()
    chain.label("a")
    chain.const(0)
    chain.const(0)
    chain.label("b")
    chain.delta_ref("b", "a")
    payload = chain.to_bytes(0x0)
    assert int.from_bytes(payload[8:12], "little") == 8


def test_duplicate_chain_label_rejected():
    chain = RopChain()
    chain.label("x")
    chain.label("x")
    with pytest.raises(ChainError):
        chain.layout(0)


def test_undefined_label_rejected():
    chain = RopChain()
    chain.label_ref("ghost")
    with pytest.raises(ChainError):
        chain.to_bytes(0)


def test_word_count_and_size():
    chain = RopChain()
    chain.const(1)
    chain.const(2)
    chain.label("x")
    assert chain.byte_size == 8
    assert chain.word_count == 2


def test_no_far_gadget_before_a_chain_label():
    """A far gadget's pad word goes after the *next* gadget address; with
    a label in between, a branch to the label would enter above the pad."""
    load = GadgetKind(GadgetOp.LOAD_CONST, dst=EAX)
    _code, (near, pivot) = emit_standard_gadgets(
        [load, GadgetKind(GadgetOp.POP_ESP)], base=0x100
    )
    far = Gadget(0x80, near.instructions, load, stack_words=1, far=True)
    chain = RopChain()
    chain.gadget(load)
    chain.const(5)
    chain.label("loop")
    chain.gadget(pivot.kind)
    chain.label_ref("loop")
    with pytest.raises(MissingGadget):
        chain.resolve(GadgetCatalog([far, pivot]))
    catalog = GadgetCatalog([far, near, pivot])
    for rng in [None] + [random.Random(seed) for seed in range(8)]:
        resolved = chain.resolve(catalog, rng=rng)
        assert resolved.items[0].gadget is near
        assert resolved.word_count == 4
