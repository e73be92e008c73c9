"""Telemetry enabled-overhead gate: measure it, publish it, enforce it.

Runs a representative workload — a whole corpus-program emulation on
the block engine, the paper's fig. 5b shape — under
:func:`repro.telemetry.measure_overhead`, alternating runs with
telemetry fully disabled and with metrics + tracing + flight recorder
all on, at their defaults.  The relative slowdown is the *enabled
overhead* of the observability stack, and this benchmark fails
(exit 1) when it exceeds the budget
(default 5%, ``REPRO_TELEMETRY_BUDGET`` to override) — the CI gate
that keeps "cheap enough to leave running" an enforced property
instead of a docstring claim.

Emits ``BENCH_telemetry_overhead.json`` next to this file (override
with ``--output`` or ``REPRO_BENCH_TELEMETRY_OVERHEAD``) and appends
``headroom`` (budget − fraction, higher is better) to the benchmark
history for the regression gate.  Runs standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.telemetry import measure_overhead, publish_overhead  # noqa: E402
from repro.telemetry.overhead import configured_budget  # noqa: E402

DEFAULT_OUTPUT = os.environ.get(
    "REPRO_BENCH_TELEMETRY_OVERHEAD",
    os.path.join(os.path.dirname(__file__), "BENCH_telemetry_overhead.json"),
)

#: Workload program: small enough to repeat, big enough that the
#: emulator's instrumented hot paths dominate the measurement.
PROGRAM = os.environ.get("REPRO_BENCH_OVERHEAD_PROGRAM", "gzip")


def run_gate(repeats: int, output: str) -> int:
    program = _shared.program(PROGRAM)

    def workload():
        result = program.run(max_steps=_shared.MAX_STEPS, engine=_shared.ENGINE)
        assert not result.crashed, result.fault

    budget = configured_budget()
    report = measure_overhead(workload, repeats=repeats, budget=budget)
    publish_overhead(report)

    verdict = "within" if report.within_budget else "OVER"
    print(f"telemetry enabled-overhead gate ({PROGRAM}, {_shared.ENGINE} engine)")
    print(f"  off     : {report.off_seconds * 1e3:8.2f} ms (best of {repeats})")
    print(f"  on      : {report.on_seconds * 1e3:8.2f} ms")
    print(f"  overhead: {report.fraction * 100:8.2f} %")
    print(f"  budget  : {report.budget * 100:8.2f} %  -> {verdict}")

    payload = {
        "program": PROGRAM,
        "engine": _shared.ENGINE,
        "env": _shared.env_stamp(),
        **report.to_dict(),
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {output}")

    # history metric must be higher-is-better: record the headroom left
    # under the budget rather than the overhead itself
    _shared.record_history(
        "telemetry_overhead",
        {"headroom": report.budget - report.fraction},
    )

    if not report.within_budget:
        print(
            f"ERROR: telemetry overhead {report.fraction:.1%} exceeds "
            f"the {report.budget:.0%} budget",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per arm; best-of is kept (default 3)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="result JSON path")
    args = parser.parse_args(argv)
    return run_gate(args.repeats, args.output)


if __name__ == "__main__":
    sys.exit(main())
