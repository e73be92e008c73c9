"""Emulator throughput: block engine vs. step engine.

Measures instructions/sec for both execution engines on the two
workload shapes the paper's evaluation leans on:

* **chain** — repeated verification-function calls on a protected
  image (fig. 5a's workload: ROP-chain heavy, ret-dominated);
* **program** — whole corpus-program runs (fig. 5b's workload);
* **profile** — whole-program runs with the §VII-B
  :class:`~repro.emu.profiler.Profiler` attached as the block observer
  (the selection profile every auto-select protect runs).

Per program it also reports the block engine's profiled over plain
throughput, ``block_profile_ratio``: what the observer costs a whole
run (1.0 = nothing).  Single cold runs on a shared host swing by more
than that cost, so the ratio comes from its own ``OBSERVER_ROUNDS``
interleaved pairs of block-engine runs, best of each.  It is reported,
not gated.

Every measurement doubles as a differential check: steps, cycles and
observable outputs — and, for ``profile``, every function's calls,
steps and cycles — must match across engines exactly, and any
mismatch is recorded (and fails the run).

Methodology: every engine gets the same warmup (``CHAIN_WARMUP``
calls), then the timed batches are *interleaved* across engines and
the best of ``CHAIN_ROUNDS`` batches is kept per engine.  ``program``
and ``profile`` rows are the median of ``WHOLE_RUN_ROUNDS`` cold
whole runs per engine, alternating engines; every run's signature
must match every other's.  Interleaving keeps a transient machine-load
spike from landing entirely on one engine's number.

Emits ``BENCH_emulator.json`` next to this file (override with
``--output``).  Runs standalone::

    PYTHONPATH=src python benchmarks/bench_emulator_throughput.py \
        --programs gzip nginx bzip2 --min-speedup 2.0

or under pytest-benchmark with the rest of the suite.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.emu import Emulator, Profiler, run_image  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(__file__), "BENCH_emulator.json"
)

ENGINES = ("step", "block")

#: Warmup verification calls per engine before any timing: the block
#: cache is warm after the first call, and every call's signature feeds
#: the differential check.  Step and block get the identical warmup so
#: no engine amortizes compile work into another's timed region.
CHAIN_WARMUP = 32

#: Verification calls per timed batch (steady-state: all caches warm).
CHAIN_REPEATS = 40

#: Timed batches per engine; the best (minimum time) is kept.
CHAIN_ROUNDS = 5

#: Whole-program runs per engine behind each ``program`` and
#: ``profile`` row, alternating engines; the median time is kept.
WHOLE_RUN_ROUNDS = 3

#: Interleaved plain/profiled block-engine run pairs behind
#: ``block_profile_ratio``; the best of each is kept.
OBSERVER_ROUNDS = 3


def _digest_args(name):
    prog = _shared.program(name)
    image = _shared.protected(name, "cleartext").image
    return image, image.symbols[f"digest_{name}"].vaddr, [
        12345, 7, prog.data.addr("stats"),
    ]


def _chain_setup(name, engine):
    """Warmed emulator + call target for one engine; returns the warmup
    signature so engines can be differentially compared."""
    image, vaddr, args = _digest_args(name)
    emulator = Emulator(image, max_steps=200_000_000, engine=engine)
    signature = []
    for _ in range(CHAIN_WARMUP):
        eax = emulator.call_function(vaddr, args)
        signature.append((eax, emulator.steps, emulator.cycles))
    return emulator, vaddr, args, tuple(signature)


def _chain_batch(emulator, vaddr, args):
    """One timed batch; returns (elapsed seconds, steps executed)."""
    start_steps = emulator.steps
    t0 = time.perf_counter()
    for _ in range(CHAIN_REPEATS):
        emulator.call_function(vaddr, args)
    return time.perf_counter() - t0, emulator.steps - start_steps


def measure_chain(name):
    """Chain throughput for every engine; returns ({engine: ips},
    {engine: [warmup signature]})."""
    setups = {engine: _chain_setup(name, engine) for engine in ENGINES}
    best = {engine: float("inf") for engine in ENGINES}
    steps = {}
    for _ in range(CHAIN_ROUNDS):
        for engine in ENGINES:
            emulator, vaddr, args, _ = setups[engine]
            elapsed, batch_steps = _chain_batch(emulator, vaddr, args)
            best[engine] = min(best[engine], elapsed)
            steps[engine] = batch_steps
    ips = {engine: steps[engine] / best[engine] for engine in ENGINES}
    sigs = {engine: [setups[engine][3]] for engine in ENGINES}
    return ips, sigs


def _whole_runs(run):
    """``WHOLE_RUN_ROUNDS`` rounds of ``run(engine) -> (seconds, steps,
    signature)``, alternating the engines within each round; returns
    ({engine: ips at the median time}, {engine: every run's signature})."""
    times = {engine: [] for engine in ENGINES}
    steps, sigs = {}, {engine: [] for engine in ENGINES}
    for _ in range(WHOLE_RUN_ROUNDS):
        for engine in ENGINES:
            elapsed, steps[engine], signature = run(engine)
            times[engine].append(elapsed)
            sigs[engine].append(signature)
    ips = {
        engine: steps[engine] / statistics.median(times[engine])
        for engine in ENGINES
    }
    return ips, sigs


def _result_signature(result):
    return (
        result.exit_status, result.steps, result.cycles,
        result.stdout.hex(), repr(result.fault),
    )


def measure_program(name):
    """Whole-program runs per engine; returns ({engine: ips},
    {engine: every run's RunResult signature})."""
    image = _shared.program(name).image

    def run(engine):
        t0 = time.perf_counter()
        result = run_image(image, max_steps=_shared.MAX_STEPS, engine=engine)
        elapsed = time.perf_counter() - t0
        return elapsed, result.steps, _result_signature(result)

    return _whole_runs(run)


def measure_profile(name):
    """Whole-program runs per engine under the function profiler;
    returns ({engine: ips}, {engine: every run's RunResult +
    per-function profile signature})."""
    image = _shared.program(name).image

    def run(engine):
        emulator = Emulator(image, max_steps=_shared.MAX_STEPS, engine=engine)
        profiler = Profiler(image)
        profiler.attach(emulator)
        t0 = time.perf_counter()
        result = emulator.run()
        elapsed = time.perf_counter() - t0
        signature = _result_signature(result) + (
            sorted(
                (prof.name, prof.calls, prof.steps, prof.cycles)
                for prof in profiler.profiles.values()
            ),
        )
        return elapsed, result.steps, signature

    return _whole_runs(run)


def measure_observer_cost(name):
    """Block-engine instructions/sec with the profiler over without it,
    best of ``OBSERVER_ROUNDS`` interleaved pairs of whole runs."""
    image = _shared.program(name).image
    best = {False: float("inf"), True: float("inf")}
    for _ in range(OBSERVER_ROUNDS):
        for profiled in best:
            emulator = Emulator(
                image, max_steps=_shared.MAX_STEPS, engine=_shared.ENGINE
            )
            if profiled:
                Profiler(image).attach(emulator)
            t0 = time.perf_counter()
            emulator.run()
            best[profiled] = min(best[profiled], time.perf_counter() - t0)
    return best[False] / best[True]


#: Workload rows, in report order, and how each is measured.
MEASURES = {
    "chain": measure_chain,
    "program": measure_program,
    "profile": measure_profile,
}
WORKLOADS = tuple(MEASURES)


def run_suite(programs, output=DEFAULT_OUTPUT):
    rows = {}
    mismatches = []
    for name in programs:
        row = {}
        for kind, measure in MEASURES.items():
            ips, sigs = measure(name)
            runs = [sig for engine in ENGINES for sig in sigs[engine]]
            identical = all(sig == runs[0] for sig in runs)
            if not identical:
                mismatches.append({
                    "program": name, "workload": kind,
                    **{e: repr(sigs[e]) for e in ENGINES},
                })
            row[kind] = {
                "step_ips": round(ips["step"]),
                "block_ips": round(ips["block"]),
                "speedup": round(ips["block"] / ips["step"], 2),
                "identical": identical,
            }
        row["block_profile_ratio"] = round(measure_observer_cost(name), 3)
        rows[name] = row

    def geomean(kind, key):
        vals = [rows[n][kind][key] for n in rows]
        return round(math.exp(sum(math.log(v) for v in vals) / len(vals)), 2)

    payload = {
        "programs": rows,
        **{
            f"{kind}_speedup_geomean": geomean(kind, "speedup")
            for kind in WORKLOADS
        },
        "mismatches": mismatches,
        "chain_repeats": CHAIN_REPEATS,
        "chain_warmup": CHAIN_WARMUP,
        "chain_rounds": CHAIN_ROUNDS,
        "whole_run_rounds": WHOLE_RUN_ROUNDS,
        "observer_rounds": OBSERVER_ROUNDS,
    }
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
    history = {}
    for name, row in rows.items():
        for kind in WORKLOADS:
            for engine in ENGINES:
                history[f"{name}.{kind}.{engine}_ips"] = \
                    row[kind][f"{engine}_ips"]
    for kind in WORKLOADS:
        history[f"{kind}_speedup_geomean"] = payload[f"{kind}_speedup_geomean"]
    _shared.record_history("emulator", history)
    return payload


def _print_report(payload):
    print(f"{'program':<8} {'workload':<8} {'step':>11} {'block':>12}"
          f" {'blk/step':>9}")
    for name, row in payload["programs"].items():
        for kind in WORKLOADS:
            r = row[kind]
            print(f"{name:<8} {kind:<8} {r['step_ips']:>11,}"
                  f" {r['block_ips']:>12,} {r['speedup']:>8.1f}x")
    ratios = ", ".join(
        f"{name} {row['block_profile_ratio']:.2f}"
        for name, row in payload["programs"].items()
    )
    print(f"\nblock engine, profiled/plain throughput: {ratios}")
    geomeans = ", ".join(
        f"{kind} {payload[f'{kind}_speedup_geomean']}x" for kind in WORKLOADS
    )
    print(f"geomean block/step: {geomeans}; "
          f"{len(payload['mismatches'])} differential mismatch(es)")


def gate_failures(payload, min_speedup=0.0):
    """Why ``payload`` fails its gates; empty when it passes.

    Every row of every workload must be identical across the engines,
    and every workload's block/step speedup geomean must reach
    ``min_speedup``.
    """
    failures = []
    for name, row in payload["programs"].items():
        for kind in WORKLOADS:
            if not row[kind]["identical"]:
                failures.append(f"engines diverged on {name} ({kind})")
    for kind in WORKLOADS:
        speedup = payload[f"{kind}_speedup_geomean"]
        if speedup < min_speedup:
            failures.append(
                f"{kind} block/step speedup {speedup}x "
                f"below required {min_speedup}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", nargs="+",
                        default=["wget", "nginx", "bzip2", "gzip"],
                        help="corpus programs to measure (default: the "
                        "four with substantial verification chains; gcc "
                        "and lame have sub-300-step chains dominated by "
                        "per-call setup)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the chain-, program- and "
                        "profile-workload block/step geomean speedups "
                        "all reach this factor")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write BENCH_emulator.json")
    args = parser.parse_args(argv)

    payload = run_suite(args.programs, output=args.output)
    _print_report(payload)
    failures = gate_failures(payload, args.min_speedup)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_emulator_throughput(benchmark):
    payload = benchmark.pedantic(
        lambda: run_suite(["gzip"]), rounds=1, iterations=1
    )
    _print_report(payload)
    assert gate_failures(payload, 2.0) == []


if __name__ == "__main__":
    sys.exit(main())
