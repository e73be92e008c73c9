"""Speed gates: the three ratio checks CI enforces, in one run.

* **engines** — block/step instructions per second on the ``chain``
  (repeated verification-function calls on a protected image),
  ``program`` (whole runs) and ``profile`` (whole runs under the §VII-B
  :class:`~repro.emu.profiler.Profiler`) workloads of
  :data:`ENGINE_PROGRAMS`; every run's signature (``RunResult`` fields,
  plus each function's calls, steps and cycles on ``profile``) must be
  the same on both engines.
* **finder** — the memoized ``find_gadgets_in_bytes`` against the
  exhaustive reference on :data:`FINDER_PROGRAMS`; the gadget sets must
  be identical and non-empty.
* **serve** — an in-process :class:`ServerThread` at
  :data:`SERVE_CONCURRENCY` connections: a cold pass of unique protect
  jobs, then a warm pass of serve-cache hits replaying them; every
  response must be a 200.

Each geomean ratio must reach its ``MIN_*`` threshold.  Writes
``BENCH_speed_gates.json`` next to this file, appends the ``emulator``,
``gadget_finder`` and ``serve`` history entries ``check_regression.py``
reads, and exits 0 when every gate passes, 1 otherwise.  No options::

    PYTHONPATH=src python benchmarks/bench_speed_gates.py
"""

import asyncio
import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.emu import Emulator, Profiler, run_image  # noqa: E402
from repro.gadgets import (  # noqa: E402
    find_gadgets_in_bytes,
    reference_find_gadgets_in_bytes,
)
from repro.serve import AsyncServeClient, ServeConfig, ServerThread  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(__file__), "BENCH_speed_gates.json")

#: Programs with substantial verification chains; gcc and lame have
#: sub-300-step chains dominated by per-call setup.
ENGINE_PROGRAMS = ("wget", "nginx", "bzip2", "gzip")
FINDER_PROGRAMS = ("gzip", "wget")

MIN_ENGINE_SPEEDUP = 2.0
MIN_FINDER_SPEEDUP = 2.0
MIN_WARM_SPEEDUP = 5.0

ENGINES = ("step", "block")
WORKLOADS = ("chain", "program", "profile")

#: Warm-up verification calls per engine before any timing: the block
#: cache is warm after the first call, and every call's signature feeds
#: the differential check.  Both engines get the identical warm-up so
#: neither amortizes compile work into the other's timed region.
CHAIN_WARMUP = 32

#: Verification calls per timed batch (steady state: all caches warm).
CHAIN_REPEATS = 40

#: Timed batches per engine; the best (minimum time) is kept.
CHAIN_ROUNDS = 5

#: Whole-program runs per engine behind each ``program`` and
#: ``profile`` row, alternating engines; the median time is kept.
WHOLE_RUN_ROUNDS = 3

#: Scans per finder and program; the best time is kept.
FINDER_REPEATS = 3

#: Concurrent keep-alive connections; the cold pass holds two unique
#: requests per connection.
SERVE_CONCURRENCY = 64

#: Minimum requests in the warm pass.  One round of 128 cache hits ends
#: within a few tenths of a second, too short to time reliably.
WARM_REQUESTS = 1000

#: Request mix: protect jobs rotating over the whole corpus.
SERVE_PROGRAMS = tuple(_shared.PROGRAM_NAMES)


def geomean(values):
    values = list(values)
    return round(math.exp(sum(math.log(v) for v in values) / len(values)), 2)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _result_signature(result):
    return (
        result.exit_status, result.steps, result.cycles,
        result.stdout.hex(), repr(result.fault),
    )


def _chain(name):
    image = _shared.protected(name, "cleartext").image
    vaddr = image.symbols[f"digest_{name}"].vaddr
    args = [12345, 7, _shared.program(name).data.addr("stats")]
    emulators, signatures = {}, {}
    for engine in ENGINES:
        emulator = Emulator(image, max_steps=200_000_000, engine=engine)
        signature = []
        for _ in range(CHAIN_WARMUP):
            eax = emulator.call_function(vaddr, args)
            signature.append((eax, emulator.steps, emulator.cycles))
        emulators[engine], signatures[engine] = emulator, [tuple(signature)]
    best = {engine: math.inf for engine in ENGINES}
    steps = {}
    for _ in range(CHAIN_ROUNDS):
        for engine, emulator in emulators.items():
            before = emulator.steps
            t0 = time.perf_counter()
            for _ in range(CHAIN_REPEATS):
                emulator.call_function(vaddr, args)
            best[engine] = min(best[engine], time.perf_counter() - t0)
            steps[engine] = emulator.steps - before
    return {e: steps[e] / best[e] for e in ENGINES}, signatures


def _whole_runs(run):
    """:data:`WHOLE_RUN_ROUNDS` rounds of ``run(engine) -> (seconds,
    steps, signature)``, alternating the engines within each round."""
    times = {engine: [] for engine in ENGINES}
    steps, signatures = {}, {engine: [] for engine in ENGINES}
    for _ in range(WHOLE_RUN_ROUNDS):
        for engine in ENGINES:
            elapsed, steps[engine], signature = run(engine)
            times[engine].append(elapsed)
            signatures[engine].append(signature)
    ips = {e: steps[e] / statistics.median(times[e]) for e in ENGINES}
    return ips, signatures


def _program(name):
    image = _shared.program(name).image

    def run(engine):
        t0 = time.perf_counter()
        result = run_image(image, max_steps=_shared.MAX_STEPS, engine=engine)
        return time.perf_counter() - t0, result.steps, _result_signature(result)

    return _whole_runs(run)


def _profile(name):
    image = _shared.program(name).image

    def run(engine):
        emulator = Emulator(image, max_steps=_shared.MAX_STEPS, engine=engine)
        profiler = Profiler(image)
        profiler.attach(emulator)
        t0 = time.perf_counter()
        result = emulator.run()
        elapsed = time.perf_counter() - t0
        functions = sorted(
            (prof.name, prof.calls, prof.steps, prof.cycles)
            for prof in profiler.profiles.values()
        )
        return elapsed, result.steps, _result_signature(result) + (functions,)

    return _whole_runs(run)


def measure_engines(name):
    """``{workload: ({engine: instructions/s}, {engine: [signature of
    every run]})}`` for one program."""
    return {"chain": _chain(name), "program": _program(name),
            "profile": _profile(name)}


def engine_gate():
    rows = {}
    for name in ENGINE_PROGRAMS:
        rows[name] = {}
        for kind, (ips, signatures) in measure_engines(name).items():
            runs = [sig for engine in ENGINES for sig in signatures[engine]]
            rows[name][kind] = {
                "step_ips": round(ips["step"]),
                "block_ips": round(ips["block"]),
                "speedup": round(ips["block"] / ips["step"], 2),
                "identical": all(sig == runs[0] for sig in runs),
            }
    return {
        "programs": rows,
        "speedup_geomean": {
            kind: geomean(row[kind]["speedup"] for row in rows.values())
            for kind in WORKLOADS
        },
    }


# ---------------------------------------------------------------------------
# finder
# ---------------------------------------------------------------------------

def gadget_fingerprint(gadgets):
    """Order-independent, semantics-complete fingerprint of a gadget set."""
    return sorted(
        (
            g.address, g.end, g.kind.key(), g.stack_words, g.far, g.ret_imm,
            tuple(i.raw.hex() for i in g.instructions),
        )
        for g in gadgets
    )


def measure_finder(name):
    """``(code bytes, {finder: (best seconds, gadget fingerprint)})``
    over one program's executable sections."""
    image = _shared.program(name).image
    sections = [(bytes(s.data), s.vaddr) for s in image.executable_sections()]
    scans = {}
    for finder, find in (("reference", reference_find_gadgets_in_bytes),
                         ("memoized", find_gadgets_in_bytes)):
        best = math.inf
        for _ in range(FINDER_REPEATS):
            t0 = time.perf_counter()
            found = [g for data, base in sections for g in find(data, base=base)]
            best = min(best, time.perf_counter() - t0)
        scans[finder] = (best, gadget_fingerprint(found))
    return sum(len(data) for data, _base in sections), scans


def finder_gate():
    rows = {}
    for name in FINDER_PROGRAMS:
        code_bytes, scans = measure_finder(name)
        (ref_s, ref_set), (opt_s, opt_set) = scans["reference"], scans["memoized"]
        rows[name] = {
            "code_bytes": code_bytes,
            "gadgets": len(ref_set),
            "reference_ms": round(ref_s * 1e3, 2),
            "optimized_ms": round(opt_s * 1e3, 2),
            "optimized_bytes_per_s": round(code_bytes / opt_s),
            "speedup": round(ref_s / opt_s, 2),
            "identical": ref_set == opt_set,
        }
    return {
        "programs": rows,
        "speedup_geomean": geomean(row["speedup"] for row in rows.values()),
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

async def _drive(host, port, bodies):
    """Fan ``bodies`` over :data:`SERVE_CONCURRENCY` connections; one
    pass's requests, req/s, HTTP statuses and ``X-Singleflight`` roles."""
    queue = asyncio.Queue()
    for body in bodies:
        queue.put_nowait(body)
    roles, statuses = {}, {}

    async def worker():
        async with AsyncServeClient(host, port) as client:
            while not queue.empty():
                status, headers, _ = await client.post("/protect", queue.get_nowait())
                role = headers.get("x-singleflight", "?")
                roles[role] = roles.get(role, 0) + 1
                statuses[status] = statuses.get(status, 0) + 1

    t0 = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(SERVE_CONCURRENCY)))
    wall = time.perf_counter() - t0
    return {
        "requests": len(bodies),
        "wall_s": round(wall, 4),
        "req_per_s": round(len(bodies) / wall, 2),
        "statuses": statuses,
        "roles": roles,
    }


def measure_serve():
    """``{"cold": pass, "warm": pass}`` on a fresh in-process server."""
    seed_base = time.time_ns() % 1_000_000_000
    bodies = [
        {"program": SERVE_PROGRAMS[i % len(SERVE_PROGRAMS)],
         "seed": seed_base + i, "tenant": f"bench-c{SERVE_CONCURRENCY}"}
        for i in range(2 * SERVE_CONCURRENCY)
    ]
    config = ServeConfig(port=0, jobs=min(4, os.cpu_count() or 2),
                         queue_depth=4 * SERVE_CONCURRENCY)
    with ServerThread(config) as srv:
        cold = asyncio.run(_drive(config.host, srv.port, bodies))
        rounds = -(-WARM_REQUESTS // len(bodies))
        warm = asyncio.run(_drive(config.host, srv.port, bodies * rounds))
    return {"cold": cold, "warm": warm}


def serve_gate():
    passes = measure_serve()
    return {
        "concurrency": SERVE_CONCURRENCY,
        **passes,
        "warm_speedup": round(
            passes["warm"]["req_per_s"] / passes["cold"]["req_per_s"], 2
        ),
    }


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

def gate_failures(payload):
    """Why ``payload`` fails its gates; empty when it passes."""
    failures = []
    engines, finder, serve = payload["engines"], payload["finder"], payload["serve"]
    for name, row in engines["programs"].items():
        for kind in WORKLOADS:
            if not row[kind]["identical"]:
                failures.append(f"engines diverged on {name} ({kind})")
    for kind, speedup in engines["speedup_geomean"].items():
        if speedup < MIN_ENGINE_SPEEDUP:
            failures.append(f"{kind} block/step speedup {speedup}x "
                            f"below required {MIN_ENGINE_SPEEDUP}x")
    for name, row in finder["programs"].items():
        if not row["identical"]:
            failures.append(f"memoized finder diverged from the reference on {name}")
        if row["gadgets"] == 0:
            failures.append(f"no gadgets found in {name}")
    if finder["speedup_geomean"] < MIN_FINDER_SPEEDUP:
        failures.append(f"finder speedup {finder['speedup_geomean']}x "
                        f"below required {MIN_FINDER_SPEEDUP}x")
    for phase in ("cold", "warm"):
        if set(serve[phase]["statuses"]) != {200}:
            failures.append(f"non-200 {phase} responses: {serve[phase]['statuses']}")
    if serve["warm"]["requests"] < WARM_REQUESTS:
        failures.append(f"warm pass held {serve['warm']['requests']} requests, "
                        f"fewer than {WARM_REQUESTS}")
    if serve["warm_speedup"] < MIN_WARM_SPEEDUP:
        failures.append(f"warm/cold speedup {serve['warm_speedup']}x at "
                        f"c{serve['concurrency']} below required {MIN_WARM_SPEEDUP}x")
    return failures


def record_history(payload):
    """Append the ``emulator``, ``gadget_finder`` and ``serve`` entries
    (higher is better for every key) for ``check_regression.py``."""
    engines, finder, serve = payload["engines"], payload["finder"], payload["serve"]
    history = {
        f"{name}.{kind}.{engine}_ips": row[kind][f"{engine}_ips"]
        for name, row in engines["programs"].items()
        for kind in WORKLOADS for engine in ENGINES
    }
    for kind, speedup in engines["speedup_geomean"].items():
        history[f"{kind}_speedup_geomean"] = speedup
    _shared.record_history("emulator", history)
    history = {}
    for name, row in finder["programs"].items():
        history[f"{name}.optimized_bytes_per_s"] = row["optimized_bytes_per_s"]
        history[f"{name}.speedup"] = row["speedup"]
    history["speedup_geomean"] = finder["speedup_geomean"]
    _shared.record_history("gadget_finder", history)
    level = f"c{serve['concurrency']}"
    _shared.record_history("serve", {
        f"{level}.cold_rps": serve["cold"]["req_per_s"],
        f"{level}.warm_rps": serve["warm"]["req_per_s"],
        f"{level}.warm_speedup": serve["warm_speedup"],
    })


def print_report(payload):
    engines, finder, serve = payload["engines"], payload["finder"], payload["serve"]
    print(f"{'program':<8} {'workload':<8} {'step ips':>11} {'block ips':>12}"
          f" {'blk/step':>9}")
    for name, row in engines["programs"].items():
        for kind in WORKLOADS:
            r = row[kind]
            print(f"{name:<8} {kind:<8} {r['step_ips']:>11,}"
                  f" {r['block_ips']:>12,} {r['speedup']:>8.2f}x")
    print("geomean block/step: " + ", ".join(
        f"{kind} {speedup}x" for kind, speedup in engines["speedup_geomean"].items()
    ))
    print(f"\n{'program':<8} {'bytes':>7} {'gadgets':>8} {'ref ms':>8}"
          f" {'memo ms':>8} {'memo B/s':>10} {'x':>6}")
    for name, r in finder["programs"].items():
        print(f"{name:<8} {r['code_bytes']:>7,} {r['gadgets']:>8,}"
              f" {r['reference_ms']:>8.1f} {r['optimized_ms']:>8.1f}"
              f" {r['optimized_bytes_per_s']:>10,} {r['speedup']:>5.2f}x")
    print(f"geomean memoized/reference: {finder['speedup_geomean']}x")
    print(f"\nserve c{serve['concurrency']}:")
    for phase in ("cold", "warm"):
        r = serve[phase]
        roles = ",".join(f"{k}:{n}" for k, n in sorted(r["roles"].items()))
        print(f"  {phase:<4} {r['requests']:>5} requests {r['req_per_s']:>9,.1f}"
              f" req/s  {roles}")
    print(f"  warm/cold {serve['warm_speedup']}x")


def main() -> int:
    payload = {"engines": engine_gate(), "finder": finder_gate(),
               "serve": serve_gate()}
    with open(OUTPUT, "w") as fh:
        json.dump(payload, fh, indent=2)
    record_history(payload)
    print_report(payload)
    failures = gate_failures(payload)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
