"""Finder cache correctness: a warm per-section scan replays the cold
one exactly.  (A code change orphaning older entries is pinned for
every namespace by ``tests/pipeline/test_cache_key_rule.py``.)
"""

from repro.binary import BinaryImage, Perm, Section
from repro.cache import cache_session
from repro.gadgets import find_gadgets, reference_find_gadgets
from repro.x86 import Assembler, EAX, EBX, ECX


def _fingerprint(gadgets):
    return [(g.address, g.end, g.kind.key()) for g in gadgets]


def _multi_section_image():
    image = BinaryImage("multi")
    a = Assembler()
    a.pop(EAX); a.ret(); a.nop(); a.mov(EBX, EAX); a.ret()
    b = Assembler()
    b.pop(EBX); b.ret(); b.pop(ECX); b.nop(); b.ret()
    c = Assembler()
    c.mov(ECX, EBX); c.ret(); c.nop(); c.nop(); c.ret()
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    image.add_section(Section(".text2", 0x2000, b.assemble(), Perm.RX))
    image.add_section(Section(".text3", 0x3000, c.assemble(), Perm.RX))
    image.add_section(Section(".data", 0x4000, b"\xc3" * 16, Perm.R))
    return image


def test_cached_scan_replays_identically(tmp_path):
    image = _multi_section_image()
    with cache_session(cache_dir=str(tmp_path)):
        cold = find_gadgets(image)
        warm = find_gadgets(image)
    assert _fingerprint(cold) == _fingerprint(warm)
    assert _fingerprint(cold) == _fingerprint(reference_find_gadgets(image))
