"""Attack matrix: Parallax vs checksumming vs the Wurster attack.

The scenario: the adversary patches a byte in *cold* code (a function
the workload never executes — e.g. parking a payload, or disabling a
rarely-taken path).  The same (function, offset) byte is patched in
three builds of the program:

* unprotected — nothing notices, statically or via the I-cache;
* self-checksumming — the static patch trips a guard, but the Wurster
  instruction-cache attack sails through (guards read the data view);
* Parallax — a verification chain uses a gadget overlapping that byte,
  so BOTH the static patch and the Wurster patch derail the chain:
  execution is the one view the attacker cannot split.

Also shows oblivious hashing's blind spot: it survives Wurster, but it
cannot protect the non-deterministic ptrace check at all.

Run:  python examples/software_crack_defense.py
"""

from repro.attacks import evaluate_attack
from repro.baselines import ChecksummedProgram, OHProgram
from repro.binary import Patch
from repro.core import Parallax, ProtectConfig
from repro.corpus import build_gzip, build_wget


#: A cold function the defender explicitly asks Parallax to protect
#: (think: a dormant licensing path an attacker may patch at leisure).
COLD_FUNCTION = "gz_fill_005"


def find_cold_gadget_site(protected):
    """(symbol name, offset) of a used chain gadget inside the cold fn."""
    image = protected.image
    symbol = image.symbols[COLD_FUNCTION]
    for addr in protected.report.chains[0].gadget_addresses:
        if symbol.vaddr <= addr < symbol.end:
            return symbol.name, addr - symbol.vaddr
    raise SystemExit("no cold overlapping gadget found (unexpected)")


def patch_at(image, name, offset):
    symbol = image.symbols[name]
    addr = symbol.vaddr + offset
    old = image.read(addr, 1)
    return Patch(addr, old, bytes([old[0] ^ 0xFF]), reason="cold-byte flip")


def verdict(outcome):
    return "DETECTED" if outcome.detected else "undetected"


def main():
    program = build_gzip(blocks=2, positions=6)
    goal = program.run()

    cold = program.image.symbols[COLD_FUNCTION]
    parallax = Parallax(
        ProtectConfig(
            strategy="cleartext",
            verification_functions=["digest_gzip"],
            protect_addresses=list(range(cold.vaddr, cold.end)),
        )
    ).protect(program)
    checksummed = ChecksummedProgram(build_gzip(blocks=2, positions=6), guards=3)

    name, offset = find_cold_gadget_site(parallax)
    print(f"tampering one byte of cold code: {name}+{offset:#x}\n")

    rows = [
        ("unprotected", program.image),
        ("checksumming", checksummed.image),
        ("parallax", parallax.image),
    ]
    print(f"{'scheme':<14} {'static patch':<16} {'wurster i-cache patch'}")
    for label, image in rows:
        patch = patch_at(image, name, offset)
        static = evaluate_attack(image, [patch], goal, label)
        wurster = evaluate_attack(image, [patch], goal, label, code_view=True)
        print(f"{label:<14} {verdict(static):<16} {verdict(wurster)}")

    print()
    print("oblivious hashing vs non-determinism:")
    oh = OHProgram(build_gzip(blocks=2, positions=6), instrument=["checksum_words"])
    print(f"  OH over deterministic code: pristine exit {oh.run().exit_status} (works)")
    wget = build_wget(blocks=1, chunks=2)
    oh_bad = OHProgram(wget, instrument=["ptrace_detect"])
    traced = oh_bad.run(debugger_attached=True)
    print(f"  OH over ptrace_detect, honest traced run: exit {traced.exit_status}"
          " (false positive - OH cannot protect non-deterministic code;"
          " Parallax translates it to a chain just fine)")


if __name__ == "__main__":
    main()
