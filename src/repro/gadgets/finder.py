"""Gadget discovery over executable sections.

ROP gadgets need not start on instruction boundaries: any byte offset
whose decode reaches a return within the length bound is a gadget
(§II-A: "gadgets ... can also be unaligned instruction sequences
embedded in the normal instruction stream").  The finder therefore scans
*every* return opcode in executable sections and walks backwards over
all candidate start offsets.

Two implementations live here:

* :func:`find_gadgets_in_bytes` — the production scanner.  It locates
  every ret-family byte in a single pass over the buffer, then resolves
  each candidate start offset through a per-buffer **memo table**
  mapping ``offset -> (decoded insn, instructions-to-ret) | dead``.
  x86 decoding is deterministic per offset, so the instruction chain
  from any offset is unique; a decode at offset ``i`` that lands on an
  already-resolved offset ``j`` stops immediately and splices the
  cached tail instead of re-decoding it.  Every offset in the buffer is
  decoded **at most once** per scan, no matter how many overlapping
  ret windows cover it.  Telemetry counters are accumulated locally and
  published in one batch per buffer.

* :func:`reference_find_gadgets_in_bytes` — the original exhaustive
  implementation (full chain re-decode per candidate offset), kept
  alive forever as the equivalence oracle for the differential property
  suite and the ``bench_gadget_finder`` benchmark.

Both produce identical gadget sets and identical telemetry counter
values; ``tests/properties/test_finder_differential.py`` holds that
equivalence under Hypothesis-generated adversarial buffers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binary.image import BinaryImage
from ..x86.decoder import decode
from ..x86.errors import DecodeError
from ..x86.opcodes import (
    RET_IMM16_OPCODE,
    RET_OPCODE,
    RETF_IMM16_OPCODE,
    RETF_OPCODE,
)
from ..telemetry import get_metrics, get_tracer
from .semantics import classify
from .types import Gadget

#: Paper §VII-A: "we limited the length of the considered gadgets to six
#: instructions, as longer gadgets are difficult to use in practical ROP
#: chains."
MAX_GADGET_INSNS = 6

#: How far before a return we look for gadget start offsets.  Six
#: instructions of at most ~7 bytes each is generous at 40.
MAX_LOOKBACK_BYTES = 40

_NEAR_RETS = (RET_OPCODE, RET_IMM16_OPCODE)
_FAR_RETS = (RETF_OPCODE, RETF_IMM16_OPCODE)
_IMM16_RETS = (RET_IMM16_OPCODE, RETF_IMM16_OPCODE)

#: Memo-table terminal state: the decode chain from this offset can
#: never reach a return (decode error, control flow, or buffer overrun).
_DEAD = object()


def decode_gadget_at(
    data: bytes,
    offset: int,
    base: int = 0,
    max_insns: int = MAX_GADGET_INSNS,
) -> Optional[Gadget]:
    """Try to decode a gadget starting at ``offset`` in ``data``.

    The decode must reach a return instruction within ``max_insns``
    instructions; the sequence is then classified.  Returns ``None`` if
    no valid gadget starts here.

    Buffer bounds are checked *before* an instruction is accepted: a
    gadget whose return terminates exactly at the buffer end is valid,
    while any instruction extending past the end kills the candidate —
    even if a (hypothetically permissive) decoder produced one.
    """
    instructions = []
    pos = offset
    size = len(data)
    for _ in range(max_insns):
        if pos >= size:
            return None
        try:
            insn = decode(data, pos, address=base + pos)
        except DecodeError:
            return None
        pos += insn.length
        if pos > size:
            # Bound check first: an instruction overrunning the buffer
            # is never part of a gadget, return or not.
            return None
        instructions.append(insn)
        if insn.is_return:
            return classify(instructions)
        if insn.is_control_flow:
            return None
    return None


def _ret_length(data: bytes, ret_pos: int) -> int:
    """Encoded length of the return instruction at ``ret_pos``."""
    return 3 if data[ret_pos] in _IMM16_RETS else 1


# ----------------------------------------------------------------------
# Reference implementation (the equivalence oracle)
# ----------------------------------------------------------------------


def reference_find_gadgets_in_bytes(
    data: bytes,
    base: int = 0,
    max_insns: int = MAX_GADGET_INSNS,
    include_far: bool = True,
) -> List[Gadget]:
    """Exhaustive gadget scan — the original, obviously-correct finder.

    Scans for return opcodes and fully re-decodes every start offset
    within :data:`MAX_LOOKBACK_BYTES` before each; keeps sequences that
    decode cleanly to the return and classify as gadgets.  One gadget is
    reported per (start, return) pair — nested suffixes of a long gadget
    are separate gadgets, as in real gadget finders.

    Kept verbatim as the oracle for the differential property suite and
    the ``bench_gadget_finder`` baseline; the production scanner is
    :func:`find_gadgets_in_bytes`.
    """
    metrics = get_metrics()
    scanned = metrics.counter("gadgets.offsets_scanned")
    accepted = metrics.counter("gadgets.accepted")
    rejected = metrics.counter("gadgets.rejected")
    terminators = _NEAR_RETS + (_FAR_RETS if include_far else ())
    gadgets: List[Gadget] = []
    seen = set()
    for ret_pos, byte in enumerate(data):
        if byte not in terminators:
            continue
        lo = max(0, ret_pos - MAX_LOOKBACK_BYTES)
        for start in range(ret_pos, lo - 1, -1):
            if start in seen:
                continue
            scanned.inc()
            gadget = decode_gadget_at(data, start, base=base, max_insns=max_insns)
            if gadget is None:
                rejected.inc()
                continue
            # Only keep it if this decode actually terminates at ret_pos
            # (an earlier return could satisfy a longer window).
            if gadget.end != base + ret_pos + _ret_length(data, ret_pos):
                rejected.inc()
                continue
            gadgets.append(gadget)
            seen.add(start)
    accepted.inc(len(gadgets))
    gadgets.sort(key=lambda g: g.address)
    return gadgets


def reference_find_gadgets(
    image: BinaryImage,
    max_insns: int = MAX_GADGET_INSNS,
    include_far: bool = True,
) -> List[Gadget]:
    """Exhaustive, uncached, serial scan of every executable section."""
    gadgets: List[Gadget] = []
    for section in image.executable_sections():
        gadgets.extend(
            reference_find_gadgets_in_bytes(
                bytes(section.data),
                base=section.vaddr,
                max_insns=max_insns,
                include_far=include_far,
            )
        )
    return gadgets


# ----------------------------------------------------------------------
# Memoized single-pass scanner (production)
# ----------------------------------------------------------------------


def _ret_positions(data: bytes, terminators: Tuple[int, ...]) -> List[int]:
    """All offsets of terminator opcode bytes, ascending — one
    ``bytes.find`` sweep per opcode instead of a Python-level loop over
    every byte."""
    positions: List[int] = []
    for opcode in terminators:
        needle = bytes((opcode,))
        idx = data.find(needle)
        while idx != -1:
            positions.append(idx)
            idx = data.find(needle, idx + 1)
    positions.sort()
    return positions


def _resolve(
    data: bytes, base: int, start: int, memo: Dict[int, object]
) -> object:
    """Resolve ``memo[start]`` by walking the unique decode chain forward.

    Decodes from ``start`` until it hits an already-memoized offset, a
    return, a dead end (decode error / control flow / buffer overrun),
    then unwinds the walked path into the memo so every visited offset
    is resolved permanently.  Entries are ``_DEAD`` or ``(insn, depth)``
    where ``depth`` counts instructions from the offset through the
    terminating return, inclusive.
    """
    size = len(data)
    path: List[Tuple[int, object]] = []
    pos = start
    while True:
        entry = memo.get(pos)
        if entry is not None:
            break
        if pos >= size:
            entry = memo[pos] = _DEAD
            break
        try:
            insn = decode(data, pos, address=base + pos)
        except DecodeError:
            entry = memo[pos] = _DEAD
            break
        nxt = pos + insn.length
        if nxt > size:
            entry = memo[pos] = _DEAD
            break
        if insn.is_return:
            entry = memo[pos] = (insn, 1)
            break
        if insn.is_control_flow:
            entry = memo[pos] = _DEAD
            break
        path.append((pos, insn))
        pos = nxt
    for ppos, pinsn in reversed(path):
        if entry is _DEAD:
            memo[ppos] = _DEAD
        else:
            entry = memo[ppos] = (pinsn, entry[1] + 1)
    return memo[start]


def find_gadgets_in_bytes(
    data: bytes,
    base: int = 0,
    max_insns: int = MAX_GADGET_INSNS,
    include_far: bool = True,
) -> List[Gadget]:
    """Find all gadgets in a flat code buffer (memoized single pass).

    Equivalent to :func:`reference_find_gadgets_in_bytes` — identical
    gadget sets and telemetry counter values — but each buffer offset is
    decoded at most once per scan: candidate starts resolve through a
    memo table whose entries splice already-validated instruction tails
    instead of re-decoding them, and the ret-family locate step is one
    pass of ``bytes.find`` sweeps rather than a per-byte Python loop.
    """
    data = bytes(data)
    terminators = _NEAR_RETS + (_FAR_RETS if include_far else ())
    gadgets: List[Gadget] = []
    seen = set()
    memo: Dict[int, object] = {}
    scanned = 0
    rejected = 0
    for ret_pos in _ret_positions(data, terminators):
        window_end = ret_pos + _ret_length(data, ret_pos)
        lo = max(0, ret_pos - MAX_LOOKBACK_BYTES)
        for start in range(ret_pos, lo - 1, -1):
            if start in seen:
                continue
            scanned += 1
            entry = memo.get(start)
            if entry is None:
                entry = _resolve(data, base, start, memo)
            if entry is _DEAD or entry[1] > max_insns:
                rejected += 1
                continue
            # Splice the cached instruction tail: follow memo links to
            # collect the chain without decoding anything again.
            instructions = []
            pos = start
            while True:
                insn, depth = memo[pos]
                instructions.append(insn)
                pos += insn.length
                if depth == 1:
                    break
            # Only keep it if this chain actually terminates at this
            # window's return (an earlier return could satisfy a longer
            # window; the comparison is on end offsets, exactly as the
            # reference compares Gadget.end).
            if pos != window_end:
                rejected += 1
                continue
            gadget = classify(instructions)
            if gadget is None:
                rejected += 1
                continue
            gadgets.append(gadget)
            seen.add(start)
    metrics = get_metrics()
    metrics.counter("gadgets.offsets_scanned").inc(scanned)
    metrics.counter("gadgets.rejected").inc(rejected)
    metrics.counter("gadgets.accepted").inc(len(gadgets))
    gadgets.sort(key=lambda g: g.address)
    return gadgets


# ----------------------------------------------------------------------
# Caching and image-level entry points
# ----------------------------------------------------------------------


def find_gadgets_in_bytes_cached(
    data: bytes,
    base: int = 0,
    max_insns: int = MAX_GADGET_INSNS,
    include_far: bool = True,
) -> List[Gadget]:
    """Content-addressed :func:`find_gadgets_in_bytes`.

    The key covers the exact section bytes, the base address and every
    finder knob, so a one-byte change to the code — the very thing
    Parallax exists to detect — yields a different key and a fresh
    scan.  Gadget objects are shared between hits; the pipeline treats
    them as immutable.
    """
    from ..cache import cached

    gadgets, _hit = cached(
        "gadgets",
        (data, base, max_insns, include_far),
        lambda: find_gadgets_in_bytes(
            data, base=base, max_insns=max_insns, include_far=include_far
        ),
    )
    return list(gadgets)


def find_gadgets(
    image: BinaryImage,
    max_insns: int = MAX_GADGET_INSNS,
    include_far: bool = True,
) -> List[Gadget]:
    """Find all gadgets in every executable section of ``image``.

    Each section is looked up in the content-addressed gadget cache
    individually, so sections shared between runs (or untouched by a
    rewrite) are never re-scanned.
    """
    with get_tracer().span("find_gadgets", image=image.name) as span:
        gadgets: List[Gadget] = []
        for section in image.executable_sections():
            gadgets.extend(
                find_gadgets_in_bytes_cached(
                    bytes(section.data),
                    base=section.vaddr,
                    max_insns=max_insns,
                    include_far=include_far,
                )
            )
        span.set_attribute("found", len(gadgets))
        return gadgets
