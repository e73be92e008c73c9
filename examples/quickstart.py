"""Quickstart: protect a corpus program and watch it still work.

Run:  python examples/quickstart.py
"""

from repro import ProtectConfig, protect_request
from repro.corpus import build_wget


def main():
    # Small workload so the demo runs in seconds; drop the arguments for
    # the full benchmark-sized binary.
    program = build_wget(blocks=2, chunks=10)
    print(f"built {program}")

    # One protect request: baseline run, protection, protected run.
    request = protect_request(program, ProtectConfig(strategy="xor"))
    baseline, result = request.baseline, request.run
    print(f"baseline run : {baseline}  stdout={baseline.stdout!r}")
    print()
    print(request.protected.report.summary())
    print()
    print(f"protected run: {result}  stdout={result.stdout!r}")
    assert request.divergence is None
    overhead = request.overhead_percent
    print(f"behaviour identical; whole-program overhead {overhead:.2f}%")


if __name__ == "__main__":
    main()
