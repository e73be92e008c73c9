"""Serve throughput curve: req/s and latency percentiles vs concurrency.

Stands up an in-process ``repro serve`` instance (:class:`ServerThread`,
on the same worker-process pool the daemon runs) and drives it with an
asyncio load generator at several concurrency levels.  Each level runs
two passes over the same request set:

* **cold** — every request is unique (fresh seeds), so each one rides
  admission → single-flight → one pool submit → full protection
  pipeline; this measures the compute path.
* **warm** — the cold requests replayed, round after round, until the
  pass holds at least :data:`WARM_REQUESTS`, so every one is a
  serve-cache hit that never touches the pool; this measures the
  serving overhead floor over a pass long enough to time.

The p50/p95/p99 columns are nearest-rank quantiles
(:func:`repro.telemetry.export.nearest_rank`, the rule ``repro stats``
uses) over every client-observed request latency of a pass; the mean
is over the same latencies.

A separate coalescing section fires N *concurrent identical* requests
at a fresh key and checks the single-flight invariant end to end:
exactly one leader, everyone else a follower, all responses
byte-identical.

Emits ``BENCH_serve.json`` next to this file (override with
``--output`` or ``REPRO_BENCH_SERVE``) and appends a ``serve`` entry
to ``benchmarks/history/`` for ``check_regression.py``.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --levels 4 16 64 --min-warm-speedup 5.0
"""

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.serve import AsyncServeClient, ServeConfig, ServerThread  # noqa: E402
from repro.telemetry.export import nearest_rank  # noqa: E402

DEFAULT_OUTPUT = os.environ.get(
    "REPRO_BENCH_SERVE",
    os.path.join(os.path.dirname(__file__), "BENCH_serve.json"),
)

DEFAULT_LEVELS = (4, 16, 64)

#: Request mix: protect jobs across the whole corpus (rotating), the
#: cheapest kind — the curve measures the serving layer, not the
#: emulator.
PROGRAMS = tuple(_shared.PROGRAM_NAMES)

#: Minimum requests in a warm pass.  One round of 24-128 cache hits
#: ends within a few tenths of a second, too short to time reliably.
WARM_REQUESTS = 1000


def _requests_for_level(level: int, seed_base: int, count: int):
    """``count`` unique protect jobs (fresh seeds => cold keys)."""
    return [
        {
            "program": PROGRAMS[i % len(PROGRAMS)],
            "seed": seed_base + i,
            "tenant": f"bench-c{level}",
        }
        for i in range(count)
    ]


async def _drive(host, port, concurrency, bodies):
    """Fan ``bodies`` over ``concurrency`` keep-alive connections.

    Returns ``(wall_seconds, latencies, roles, statuses)`` where
    ``latencies[i]`` is request i's client-observed seconds and
    ``roles`` counts ``X-Singleflight`` response headers.
    """
    queue = asyncio.Queue()
    for index, body in enumerate(bodies):
        queue.put_nowait((index, body))
    latencies = [0.0] * len(bodies)
    roles = {}
    statuses = {}

    async def worker():
        async with AsyncServeClient(host, port) as client:
            while True:
                try:
                    index, body = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                t0 = time.perf_counter()
                status, headers, _payload = await client.post("/protect", body)
                latencies[index] = time.perf_counter() - t0
                role = headers.get("x-singleflight", "?")
                roles[role] = roles.get(role, 0) + 1
                statuses[status] = statuses.get(status, 0) + 1

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return time.perf_counter() - start, latencies, roles, statuses


def _latency_stats(latencies):
    """Nearest-rank percentiles and the mean of one pass's latencies."""
    ranked = sorted(latencies)
    return {
        "p50_ms": round(nearest_rank(ranked, 0.50) * 1e3, 3),
        "p95_ms": round(nearest_rank(ranked, 0.95) * 1e3, 3),
        "p99_ms": round(nearest_rank(ranked, 0.99) * 1e3, 3),
        "mean_ms": round(sum(latencies) / len(latencies) * 1e3, 3),
    }


def _pass_row(wall, latencies, roles, statuses):
    assert set(statuses) == {200}, f"non-200 responses: {statuses}"
    row = {
        "requests": len(latencies),
        "wall_s": round(wall, 4),
        "req_per_s": round(len(latencies) / wall, 2),
        "roles": roles,
    }
    row.update(_latency_stats(latencies))
    return row


async def _coalesce_check(host, port, concurrency, body):
    """N concurrent *identical* requests: 1 leader, N-1 followers,
    byte-identical responses."""
    barrier_results = []

    async def one():
        async with AsyncServeClient(host, port) as client:
            status, headers, payload = await client.post("/protect", body)
            barrier_results.append(
                (status, headers.get("x-singleflight"), json.dumps(payload, sort_keys=True))
            )

    await asyncio.gather(*(one() for _ in range(concurrency)))
    roles = {}
    for _status, role, _body in barrier_results:
        roles[role] = roles.get(role, 0) + 1
    bodies = {body for _status, _role, body in barrier_results}
    return {
        "concurrency": concurrency,
        "roles": roles,
        "distinct_bodies": len(bodies),
        "statuses": sorted({s for s, _r, _b in barrier_results}),
    }


def run_suite(
    levels=DEFAULT_LEVELS,
    requests_per_level=None,
    jobs=None,
    coalesce_n=100,
    output=DEFAULT_OUTPUT,
):
    jobs = jobs or min(4, os.cpu_count() or 2)
    seed_base = time.time_ns() % 1_000_000_000
    config = ServeConfig(
        port=0, jobs=jobs, queue_depth=max(levels) * 4,
    )
    curve = {}
    with ServerThread(config) as srv:
        host, port = config.host, srv.port
        for level in levels:
            count = requests_per_level or max(2 * level, 24)
            bodies = _requests_for_level(level, seed_base, count)
            seed_base += count
            cold = _pass_row(*asyncio.run(_drive(host, port, level, bodies)))
            rounds = -(-WARM_REQUESTS // count)
            warm = _pass_row(
                *asyncio.run(_drive(host, port, level, bodies * rounds))
            )
            warm_hits = warm["roles"].get("cache-hit", 0) + warm["roles"].get(
                "follower", 0
            )
            curve[f"c{level}"] = {
                "concurrency": level,
                "cold": cold,
                "warm": warm,
                "warm_hit_fraction": round(warm_hits / warm["requests"], 4),
                "warm_speedup": round(
                    warm["req_per_s"] / cold["req_per_s"], 2
                ),
            }
        coalesce_body = {"program": "gzip", "seed": seed_base, "tenant": "herd"}
        coalesce = asyncio.run(
            _coalesce_check(host, port, coalesce_n, coalesce_body)
        )
    payload = {
        "jobs": jobs,
        "levels": list(levels),
        "curve": curve,
        "coalesce": coalesce,
    }
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    history = {}
    for key, row in curve.items():
        history[f"{key}.cold_rps"] = row["cold"]["req_per_s"]
        history[f"{key}.warm_rps"] = row["warm"]["req_per_s"]
        history[f"{key}.warm_speedup"] = row["warm_speedup"]
    _shared.record_history("serve", history)
    return payload


def _print_report(payload):
    print(f"serve curve (jobs={payload['jobs']})")
    print(f"{'conc':>5} {'pass':<5} {'req/s':>9} {'p50':>9} {'p95':>9} "
          f"{'p99':>9}  roles")
    for key in (f"c{level}" for level in payload["levels"]):
        row = payload["curve"][key]
        for phase in ("cold", "warm"):
            r = row[phase]
            role_bits = ",".join(
                f"{role}:{count}" for role, count in sorted(r["roles"].items())
            )
            print(f"{row['concurrency']:>5} {phase:<5} {r['req_per_s']:>9,.1f} "
                  f"{r['p50_ms']:>8.1f}m {r['p95_ms']:>8.1f}m "
                  f"{r['p99_ms']:>8.1f}m  {role_bits}")
        print(f"{'':>5} warm speedup {row['warm_speedup']}x "
              f"(hit fraction {row['warm_hit_fraction']:.0%})")
    c = payload["coalesce"]
    print(f"coalesce: {c['concurrency']} identical -> roles {c['roles']}, "
          f"{c['distinct_bodies']} distinct body")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", nargs="+", type=int,
                        default=list(DEFAULT_LEVELS),
                        help="concurrency levels to measure")
    parser.add_argument("--requests-per-level", type=int, default=None,
                        help="requests per pass (default: max(2*level, 24))")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker pool size (default: min(4, cpus))")
    parser.add_argument("--coalesce-n", type=int, default=100,
                        help="herd size for the single-flight check")
    parser.add_argument("--min-warm-speedup", type=float, default=0.0,
                        help="fail unless the top level's warm pass beats "
                             "cold by this factor")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write BENCH_serve.json")
    args = parser.parse_args(argv)

    payload = run_suite(
        levels=args.levels,
        requests_per_level=args.requests_per_level,
        jobs=args.jobs,
        coalesce_n=args.coalesce_n,
        output=args.output,
    )
    _print_report(payload)

    failures = []
    top = payload["curve"][f"c{max(args.levels)}"]
    if top["warm_speedup"] < args.min_warm_speedup:
        failures.append(
            f"warm speedup {top['warm_speedup']}x at c{max(args.levels)} "
            f"below required {args.min_warm_speedup}x"
        )
    roles = payload["coalesce"]["roles"]
    if roles.get("leader", 0) != 1:
        failures.append(f"expected exactly 1 single-flight leader, got {roles}")
    if payload["coalesce"]["distinct_bodies"] != 1:
        failures.append("coalesced responses were not byte-identical")
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
