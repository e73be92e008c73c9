#!/usr/bin/env python3
"""The repository benchmark: protect requests, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload protect_auto --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run and
``--trace 1`` the per-layer metrics of a traced one (its spans go to
``perfbench/out/``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units are the ones ``BENCHMARK.json`` declares.  Exit
status: 0 when every check passed, 1 when one failed (each failure is
listed on standard error), 2 when the program's sources are missing.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading

from common import CLEARED_ENV, OUT, ROOT, SRC, Context
from serve_load import serve_mixed
from workloads import protect_auto, protect_explicit

WORKLOADS = {
    "protect_auto": protect_auto,
    "protect_explicit": protect_explicit,
    "serve_mixed": serve_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Protect-request benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    ctx = Context(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    values = WORKLOADS[args.workload](ctx)
    outcome = ctx.outcome
    nproc = os.cpu_count() or 1
    outcome.check(
        threading.active_count() <= nproc,
        f"{threading.active_count()} threads open, nproc {nproc}",
    )
    outcome.commit_exact()
    values["success_ratio"] = (outcome.attempted - outcome.failed) / max(1, outcome.attempted)
    values["host.calibration_ms"] = 1000.0 * statistics.median(ctx.clock.samples)
    if ctx.spans is not None:
        ctx.spans.write_jsonl(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    for message in outcome.failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if args.trace:
        # A layer this workload does not exercise reads 0.
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
