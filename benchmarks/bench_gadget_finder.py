"""Gadget finder throughput: memoized scanner vs. reference finder.

The gadget finder is the hot spot of every cold ``protect`` run, so its
rewrite (memoized suffix decoding, single-pass ret locate, batched
counters) is regression-gated like the emulator engines.  For every
corpus program's executable section this benchmark times

* ``reference_find_gadgets_in_bytes`` — the original exhaustive
  finder, kept in-tree forever as the equivalence oracle; and
* ``find_gadgets_in_bytes`` — the production memoized scanner,

and every measurement doubles as a differential check: the two gadget
sets must be *identical* (address, end, classification, stack shape),
and any difference is recorded and fails the run.

Emits ``BENCH_gadget_finder.json`` next to this file (override with
``--output``) and appends a ``gadget_finder`` entry to
``benchmarks/history/`` for ``check_regression.py``.  Runs standalone::

    PYTHONPATH=src python benchmarks/bench_gadget_finder.py \
        --programs gzip lame --min-speedup 2.5

or under pytest-benchmark with the rest of the suite.
"""

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.gadgets import (  # noqa: E402
    find_gadgets_in_bytes,
    reference_find_gadgets_in_bytes,
)

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(__file__), "BENCH_gadget_finder.json"
)

#: Timing repeats per (program, finder); the best run is kept, which is
#: the standard way to strip scheduler noise from CPU-bound loops.
REPEATS = 3


def gadget_fingerprint(gadgets):
    """Order-independent, semantics-complete fingerprint of a gadget set."""
    return sorted(
        (
            g.address,
            g.end,
            g.kind.key(),
            g.stack_words,
            g.far,
            g.ret_imm,
            tuple(i.raw.hex() for i in g.instructions),
        )
        for g in gadgets
    )


def _sections(name):
    image = _shared.program(name).image
    return [(bytes(s.data), s.vaddr) for s in image.executable_sections()]


def _time_scan(finder, sections, repeats=REPEATS):
    """Best-of-N wall time for scanning every section; returns
    (seconds, gadget list of the last run)."""
    best = math.inf
    gadgets = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        found = []
        for data, base in sections:
            found.extend(finder(data, base=base))
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
        gadgets = found
    return best, gadgets


def run_suite(programs, output=DEFAULT_OUTPUT, repeats=REPEATS):
    rows = {}
    mismatches = []
    for name in programs:
        sections = _sections(name)
        code_bytes = sum(len(data) for data, _base in sections)
        ref_s, ref_gadgets = _time_scan(
            reference_find_gadgets_in_bytes, sections, repeats
        )
        opt_s, opt_gadgets = _time_scan(find_gadgets_in_bytes, sections, repeats)
        identical = gadget_fingerprint(ref_gadgets) == gadget_fingerprint(opt_gadgets)
        if not identical:
            mismatches.append(
                {
                    "program": name,
                    "reference_count": len(ref_gadgets),
                    "optimized_count": len(opt_gadgets),
                }
            )
        rows[name] = {
            "code_bytes": code_bytes,
            "gadgets": len(ref_gadgets),
            "reference_ms": round(ref_s * 1e3, 2),
            "optimized_ms": round(opt_s * 1e3, 2),
            "reference_bytes_per_s": round(code_bytes / ref_s),
            "optimized_bytes_per_s": round(code_bytes / opt_s),
            "speedup": round(ref_s / opt_s, 2),
            "identical": identical,
        }

    speedups = [rows[n]["speedup"] for n in rows]
    payload = {
        "programs": rows,
        "speedup_geomean": round(
            math.exp(sum(math.log(v) for v in speedups) / len(speedups)), 2
        ),
        "mismatches": mismatches,
        "repeats": repeats,
    }
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
    history = {}
    for name, row in rows.items():
        history[f"{name}.optimized_bytes_per_s"] = row["optimized_bytes_per_s"]
        history[f"{name}.speedup"] = row["speedup"]
    history["speedup_geomean"] = payload["speedup_geomean"]
    _shared.record_history("gadget_finder", history)
    return payload


def _print_report(payload):
    print(f"{'program':<8} {'bytes':>7} {'gadgets':>8} {'ref ms':>8} "
          f"{'opt ms':>8} {'opt B/s':>10} {'x':>6}")
    for name, row in payload["programs"].items():
        print(f"{name:<8} {row['code_bytes']:>7,} {row['gadgets']:>8,} "
              f"{row['reference_ms']:>8.1f} {row['optimized_ms']:>8.1f} "
              f"{row['optimized_bytes_per_s']:>10,} {row['speedup']:>5.2f}x")
    print(f"\ngeomean speedup {payload['speedup_geomean']}x; "
          f"{len(payload['mismatches'])} gadget-set mismatch(es)")


def gate_failures(payload, min_speedup=0.0):
    """Why ``payload`` fails its gates; empty when it passes.

    Every program's gadget set must be identical across the finders and
    non-empty, and the geomean speedup must reach ``min_speedup``.
    """
    failures = []
    for name, row in payload["programs"].items():
        if not row["identical"]:
            failures.append(f"optimized finder diverged from the reference on {name}")
        if row["gadgets"] == 0:
            failures.append(f"no gadgets found in {name}")
    if payload["speedup_geomean"] < min_speedup:
        failures.append(
            f"geomean speedup {payload['speedup_geomean']}x "
            f"below required {min_speedup}x"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", nargs="+",
                        default=list(_shared.PROGRAM_NAMES),
                        help="corpus programs to measure")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the geomean speedup of the "
                        "memoized scanner reaches this factor")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="timing repeats per finder (best run kept)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write BENCH_gadget_finder.json")
    args = parser.parse_args(argv)

    payload = run_suite(args.programs, output=args.output, repeats=args.repeats)
    _print_report(payload)
    failures = gate_failures(payload, args.min_speedup)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_gadget_finder_throughput(benchmark):
    payload = benchmark.pedantic(
        lambda: run_suite(["gzip"]), rounds=1, iterations=1
    )
    _print_report(payload)
    assert gate_failures(payload, 2.0) == []


if __name__ == "__main__":
    sys.exit(main())
