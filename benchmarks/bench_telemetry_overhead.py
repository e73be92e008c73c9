"""Telemetry enabled-overhead gate: the one measure of telemetry's cost.

Times a representative workload — a whole corpus-program emulation on
the block engine, the paper's fig. 5b shape — once untimed to warm up,
then in alternating pairs: one run with telemetry fully disabled, one
with metrics + tracing + flight recorder all on, at their defaults.
The "on" configuration is the most expensive one a user can turn on,
so its slowdown upper-bounds what any real run pays.  Drift in the
host's speed lands on both halves of a pair, and the verdict is the
median of the per-pair ``(on - off) / off``, clamped at 0, which one
slow run cannot move.  This benchmark fails (exit 1) when that
*enabled overhead* exceeds :data:`BUDGET` (5%) — the CI gate that keeps
"cheap enough to leave running" an enforced property instead of a
docstring claim.

Emits ``BENCH_telemetry_overhead.json`` next to this file (override
with ``--output``) and appends ``headroom`` (budget − fraction, higher
is better) to the benchmark history for the regression gate.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.telemetry import telemetry_session  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(__file__), "BENCH_telemetry_overhead.json"
)

#: Maximum tolerated enabled overhead, as a fraction of the disabled
#: runtime.
BUDGET = 0.05

#: Workload program: small enough to repeat, big enough that the
#: emulator's instrumented hot paths dominate the measurement.
PROGRAM = "gzip"

#: Default off/on pairs.  On a shared 2-core host single pairs range
#: from -40% to +42% (90 pairs of gzip, quartiles -6.9% and +7.9%);
#: resampling those pairs puts a 31-pair median over the 5% budget
#: 0.5% of the time, against 3.5% for 15 pairs.
PAIRS = 31


def _timed(workload) -> float:
    started = time.perf_counter()
    workload()
    return time.perf_counter() - started


def measure(workload, pairs: int) -> dict:
    """Warm up once, time ``pairs`` alternating off/on runs of
    ``workload`` and return the result: each arm's median time, the
    per-pair fractions in run order and the clamped median verdict."""
    workload()
    offs, ons = [], []
    for _ in range(pairs):
        with telemetry_session(metrics=False, tracing=False):
            offs.append(_timed(workload))
        with telemetry_session(metrics=True, tracing=True, recorder=True):
            ons.append(_timed(workload))
    fractions = [
        (on - off) / off if off > 0 else 0.0 for off, on in zip(offs, ons)
    ]
    fraction = max(0.0, statistics.median(fractions))
    return {
        "off_seconds": statistics.median(offs),
        "on_seconds": statistics.median(ons),
        "fraction": fraction,
        "budget": BUDGET,
        "within_budget": fraction <= BUDGET,
        "repeats": pairs,
        "pair_fractions": fractions,
    }


def run_gate(repeats: int, output: str) -> int:
    program = _shared.program(PROGRAM)

    def workload():
        result = program.run(max_steps=_shared.MAX_STEPS, engine=_shared.ENGINE)
        assert not result.crashed, result.fault

    result = measure(workload, repeats)

    verdict = "within" if result["within_budget"] else "OVER"
    print(f"telemetry enabled-overhead gate ({PROGRAM}, {_shared.ENGINE} engine)")
    print(f"  off     : {result['off_seconds'] * 1e3:8.2f} ms (median of {repeats})")
    print(f"  on      : {result['on_seconds'] * 1e3:8.2f} ms")
    print(f"  overhead: {result['fraction'] * 100:8.2f} % (median of {repeats} pairs)")
    print(f"  budget  : {BUDGET * 100:8.2f} %  -> {verdict}")

    payload = {
        "program": PROGRAM,
        "engine": _shared.ENGINE,
        "env": _shared.env_stamp(),
        **result,
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {output}")

    # history metric must be higher-is-better: record the headroom left
    # under the budget rather than the overhead itself
    _shared.record_history(
        "telemetry_overhead",
        {"headroom": BUDGET - result["fraction"]},
    )

    if not result["within_budget"]:
        print(
            f"ERROR: telemetry overhead {result['fraction']:.1%} exceeds "
            f"the {BUDGET:.0%} budget",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=PAIRS,
        help="alternating off/on pairs; the verdict is the median "
        f"per-pair overhead (default {PAIRS})",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="result JSON path")
    args = parser.parse_args(argv)
    return run_gate(args.repeats, args.output)


if __name__ == "__main__":
    sys.exit(main())
