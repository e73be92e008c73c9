"""Differential property: the memoized scanner ≡ the reference finder.

``find_gadgets_in_bytes`` (memoized single-pass scanner) must produce
*identical* gadget sets — address, end, classification, stack shape,
raw instruction bytes — to ``reference_find_gadgets_in_bytes`` (the
original exhaustive finder, kept in-tree as the oracle) on every input,
and must publish identical telemetry counter values.

The Hypothesis strategies are seeded with the adversarial shapes the
memo table has to get right:

* ``ret imm16`` truncated at / terminating exactly on the buffer end;
* rets within ``MAX_LOOKBACK_BYTES`` of offset 0 (clamped windows);
* dense runs of ret opcodes whose lookback windows overlap heavily
  (the memo-reuse hot case — and where a chain can terminate at a
  *different* return than the window under scan);
* the corner where a far-return chain's end coincides with a near-ret
  window's end;
* runs of one-byte instructions just inside and past
  ``MAX_GADGET_INSNS``;
* prefix-dense streams (segment/rep/operand-size prefixes) that make
  decode lengths irregular.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.gadgets.finder import (
    MAX_GADGET_INSNS,
    MAX_LOOKBACK_BYTES,
    find_gadgets_in_bytes,
    reference_find_gadgets_in_bytes,
)
from repro.telemetry import MetricsRegistry, set_metrics

RET, RET_IMM16, RETF, RETF_IMM16 = 0xC3, 0xC2, 0xCB, 0xCA

#: Byte alphabet biased toward interesting encodings: ret family,
#: prefixes, pop/mov/arith opcodes, modrm bytes.
_INTERESTING = [
    RET, RET_IMM16, RETF, RETF_IMM16,
    0x58, 0x59, 0x5B, 0x5D,              # pop r32
    0x89, 0x8B, 0x01, 0x03, 0x31, 0x29,  # mov/add/xor/sub r/m forms
    0x90, 0xF7, 0xFF, 0x6A, 0x68,        # nop, grp3, grp5, push imm
    0x66, 0x26, 0x2E, 0x3E, 0x64, 0xF0, 0xF2, 0xF3,  # prefixes
    0x00, 0xC0, 0xD8, 0xE8, 0x04, 0x24, 0x45, 0x85,  # modrm/disp bytes
]

_byte = st.sampled_from(_INTERESTING) | st.integers(0, 255)
_buffers = st.lists(_byte, min_size=0, max_size=160).map(bytes)


def _counters(fn, data, **kwargs):
    """Run ``fn`` under a private registry; return (gadgets, counters)."""
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    try:
        gadgets = fn(data, **kwargs)
    finally:
        set_metrics(previous)
    samples = registry.to_dict()
    return gadgets, {
        name: samples[name]["value"]
        for name in (
            "gadgets.offsets_scanned",
            "gadgets.accepted",
            "gadgets.rejected",
        )
        if name in samples
    }


def fingerprint(gadgets):
    return sorted(
        (
            g.address,
            g.end,
            g.kind.key(),
            g.stack_words,
            g.far,
            g.ret_imm,
            g.synthetic,
            tuple(i.raw.hex() for i in g.instructions),
        )
        for g in gadgets
    )


def assert_equivalent(data, base=0x1000):
    opt, opt_counts = _counters(find_gadgets_in_bytes, data, base=base)
    ref, ref_counts = _counters(reference_find_gadgets_in_bytes, data, base=base)
    assert fingerprint(opt) == fingerprint(ref), data.hex()
    # The optimized scanner batches counter updates but must publish the
    # exact values the reference accumulates one inc() at a time.
    assert opt_counts == ref_counts, (data.hex(), opt_counts, ref_counts)
    # Sorted-by-address output order is part of the contract.
    assert [g.address for g in opt] == sorted(g.address for g in opt)


@given(data=_buffers)
@settings(max_examples=120, deadline=None)
# ret imm16 truncated at the buffer end (no room for its immediate)...
@example(data=bytes([0x58, RET_IMM16]))
@example(data=bytes([0x58, RET_IMM16, 0x04]))
# ...and terminating exactly on it.
@example(data=bytes([0x58, RET_IMM16, 0x04, 0x00]))
# rets within MAX_LOOKBACK_BYTES of offset 0: the window clamps at 0.
@example(data=bytes([RET]))
@example(data=bytes([0x90, RET, 0x90, RET]))
# overlapping ret windows: every byte is a terminator.
@example(data=bytes([RET] * 12))
@example(data=bytes([RET_IMM16, 0x01, 0x00] * 6))
# far/near end-coincidence: "retf imm16" at i ends where "ret" at i+2
# ends, so the far chain satisfies the near window's end check.
@example(data=bytes([0x58, RETF_IMM16, 0x00, RET]))
# prefix-dense streams: irregular decode lengths across the window.
@example(data=bytes([0x66, 0x26, 0xF3, 0x90] * 8 + [RET]))
@example(data=bytes([0x66, RET_IMM16, 0x66, RETF, 0x2E, RET] * 5))
def test_scanner_equals_reference(data):
    assert_equivalent(data)


@given(
    prefix=_buffers,
    run=st.integers(1, MAX_GADGET_INSNS + 2),
    filler=st.sampled_from([0x90, 0x58, 0x59, 0x5B, 0x5D]),
)
@settings(max_examples=60, deadline=None)
# chains longer than MAX_GADGET_INSNS: only their short suffixes count.
@example(prefix=b"", run=8, filler=0x90)
@example(prefix=b"", run=7, filler=0x58)
def test_scanner_equals_reference_across_length_bounds(prefix, run, filler):
    """Runs of one-byte instructions just inside and past
    MAX_GADGET_INSNS before a ret: both finders cut at the same bound."""
    data = prefix + bytes([filler] * run + [RET])
    assert_equivalent(data)
    ret_at = len(data) - 1
    gadgets = find_gadgets_in_bytes(data, base=0)
    starts = {g.address for g in gadgets}
    # Every filler within the bound reaches the ret; the first one past
    # it decodes MAX_GADGET_INSNS fillers without meeting a return.
    for k in range(1, min(run, MAX_GADGET_INSNS - 1) + 1):
        assert ret_at - k in starts, (data.hex(), k)
    if run >= MAX_GADGET_INSNS:
        assert ret_at - MAX_GADGET_INSNS not in starts, data.hex()
    assert all(len(g.instructions) <= MAX_GADGET_INSNS for g in gadgets)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scanner_equals_reference_on_ret_salted_streams(seed):
    """Random streams salted with ret-family bytes every few positions,
    so nearly every lookback window overlaps several others."""
    rng = random.Random(seed)
    chunks = []
    for _ in range(rng.randrange(1, 24)):
        chunks.append(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 7))))
        chunks.append(bytes([rng.choice([RET, RET_IMM16, RETF, RETF_IMM16])]))
    data = b"".join(chunks)
    assert_equivalent(data)


def test_window_clamp_near_offset_zero():
    """A ret closer to offset 0 than MAX_LOOKBACK_BYTES must still
    yield its gadgets (the window clamps instead of going negative)."""
    data = bytes([0x58, 0xC3])  # pop eax; ret at offsets 0/1
    assert len(data) < MAX_LOOKBACK_BYTES
    opt = find_gadgets_in_bytes(data, base=0)
    ref = reference_find_gadgets_in_bytes(data, base=0)
    assert fingerprint(opt) == fingerprint(ref)
    assert {g.address for g in opt} == {0, 1}
