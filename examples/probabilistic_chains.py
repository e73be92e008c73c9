"""§V-B probabilistic function chains by linear combination.

The protected binary regenerates its verification chain on every call,
choosing gadget variants with an LCG over the compiled index arrays —
an attacker can never be sure which gadget subset the next execution
will check.

Run:  python examples/probabilistic_chains.py
"""

from repro.core import Parallax, ProtectConfig
from repro.corpus import build_wget
from repro.emu import Emulator, OperatingSystem
from repro.emu.syscalls import ExitProgram


def main():
    program = build_wget(blocks=2, chunks=10)
    config = ProtectConfig(
        strategy="linear", verification_functions=["digest_wget"]
    )
    protected = Parallax(config).protect(program)
    record = protected.report.chains[0]
    print(protected.report.summary())
    print()
    print(f"chain: {record.word_count} words, {record.variants} compiled variants")
    distinct = len(set(record.gadget_addresses))
    print(f"distinct gadgets across all variants: {distinct}")
    print(f"variant space upper bound: {record.variants}^{record.word_count} "
          f"= {record.variants ** record.word_count:.3e}")

    # Observe the regenerated chain changing across calls at runtime.
    section = protected.image.section(".ropchains")
    emulator = Emulator(protected.image, os=OperatingSystem(), max_steps=50_000_000)
    snapshots = set()
    digest_addr = protected.image.symbols["digest_wget"].vaddr

    def observe(block, count, times):
        if block.start == digest_addr:
            snapshots.add(bytes(emulator.memory.read(section.vaddr, section.size)))

    emulator.add_observer(observe)
    try:
        while True:
            emulator.step()
    except ExitProgram:
        pass
    # the first snapshot is taken before generation; drop empty images
    live = {s for s in snapshots if any(s)}
    print(f"runtime chain images observed across calls: {len(snapshots)} "
          f"(distinct generated: {len(live)})")
    baseline = program.run()
    result = protected.run()
    assert result.stdout == baseline.stdout
    print("output identical to the unprotected program on every variant")


if __name__ == "__main__":
    main()
