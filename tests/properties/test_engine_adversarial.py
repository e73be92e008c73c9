"""Adversarial inputs: both engines agree, and every fault is typed.

ROP lives on misaligned decode, so the emulator must survive execution
from any byte offset.  Two generators drive it:

* a page of random bytes executed from random offsets, and
* ``esp`` pivoted onto a chain of addresses that land on arbitrary byte
  offsets of a corpus program's ``.text``, including the zero-filled
  tail up to the end of its segment.

The other registers point into a data page, so memory operands mostly
hit mapped bytes and runs get past their first instruction.

Both engines must return the same ``RunResult`` (steps, cycles, stdout,
exit status, fault), at the default hot threshold and compiling every
block on first dispatch, and a run may only end in an
:class:`~repro.emu.EmulationError` (``run`` captures exactly those; any
other exception escapes and fails the test).
"""

import random
import struct

from hypothesis import given, settings, strategies as st

import repro.emu.blocks as blocks
from repro.binary import BinaryImage, Perm, Section
from repro.emu import ENGINES, EmulationError, Emulator, PAGE_SIZE

CODE = 0x0040_0000
DATA = 0x0060_0000
MAX_STEPS = 3_000

_thresholds = st.sampled_from([1, blocks.HOT_THRESHOLD])


def _point_registers(emulator, regs):
    for code, value in enumerate(regs):
        if code != 4:  # esp stays on the stack
            emulator.cpu.regs[code] = value


def _outcomes(setup, threshold):
    """Run a fresh emulator, prepared by ``setup``, under every engine."""
    saved = blocks.HOT_THRESHOLD
    blocks.HOT_THRESHOLD = threshold
    try:
        results = {}
        for engine in ENGINES:
            emulator = setup(engine)
            result = emulator.run()
            results[engine] = (
                result.exit_status,
                result.steps,
                result.cycles,
                result.stdout,
                repr(result.fault),
            )
            assert result.fault is None or isinstance(result.fault, EmulationError)
    finally:
        blocks.HOT_THRESHOLD = saved
    assert all(r == results["step"] for r in results.values()), results
    return results["step"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), _thresholds)
def test_random_page_runs_identically(seed, threshold):
    rng = random.Random(seed)
    image = BinaryImage("random")
    image.add_section(Section(".text", CODE, rng.randbytes(PAGE_SIZE), Perm.RX))
    image.add_section(Section(".data", DATA, rng.randbytes(PAGE_SIZE), Perm.RW))
    regs = [DATA + rng.randrange(PAGE_SIZE) for _ in range(8)]
    for entry in sorted(rng.randrange(PAGE_SIZE) for _ in range(8)):

        def setup(engine):
            emulator = Emulator(image, max_steps=MAX_STEPS, engine=engine)
            _point_registers(emulator, regs)
            emulator.cpu.eip = CODE + entry
            return emulator

        _outcomes(setup, threshold)


def _text_offsets(text_size):
    """Byte offsets into ``.text``'s segment: anywhere, just before the
    end of its bytes, or just before the end of its (page-padded)
    segment."""
    segment_size = -(-text_size // PAGE_SIZE) * PAGE_SIZE
    return st.one_of(
        st.integers(0, text_size - 1),
        st.integers(max(text_size - 16, 0), text_size - 1),
        st.integers(segment_size - 16, segment_size - 1),
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), _thresholds)
def test_pivoted_chains_into_text_run_identically(small_gzip, choices, threshold):
    image = small_gzip.image
    text = image.section(".text")
    chain = choices.draw(
        st.lists(_text_offsets(len(text.data)), min_size=1, max_size=12)
    )
    words = [text.vaddr + offset for offset in chain]
    data = image.section(".data")
    regs = choices.draw(
        st.lists(st.integers(0, len(data.data) - 1), min_size=8, max_size=8)
    )

    def setup(engine):
        emulator = Emulator(image, max_steps=MAX_STEPS, engine=engine)
        _point_registers(emulator, [data.vaddr + offset for offset in regs])
        # As if a ``ret`` had just popped the first word: eip on it,
        # esp on the rest of the chain.
        esp = emulator.cpu.esp - 4 * len(words)
        emulator.memory.write(esp, struct.pack(f"<{len(words)}I", *words))
        emulator.cpu.esp = esp + 4
        emulator.cpu.eip = words[0]
        return emulator

    _outcomes(setup, threshold)
