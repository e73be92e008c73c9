"""``serve_mixed``: a closed loop of protect jobs against ``repro serve``.

The daemon runs at its CLI defaults (process executor, ``--jobs 2``)
with a fresh ``--cache-dir`` per daemon, warmed with two protect jobs per
program before timing (the pool workers' first use of a program fills
their corpus, decode and gadget caches, a cost a long-running daemon
pays once).  One asyncio thread drives one keep-alive connection: with
two, a cache hit's latency depended on whether it queued behind a
concurrent miss's response encoding on the daemon's event loop, which
made every latency figure spread past its bound.  Requests come in
rounds of five: a new key, then four repeats of keys the cycle already
issued, so 80% of requests repeat an earlier key.  Each 24-round cycle
(:func:`cycle_keys`) runs against its own fresh daemon, at least
``MIN_CYCLES`` of them and then until ``--seconds``, so every run
serves each program x strategy pair equally often; the timings are
medians over the daemons, because the same load ran markedly faster
against one daemon process than against the next.
"""
from __future__ import annotations

import asyncio
import contextlib
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

from common import (
    OUT,
    OVERHEAD_PROGRAM,
    ROOT,
    SETUP_TRIALS,
    Context,
    Fig5,
    HostClock,
    build_corpus,
    child_env,
    geomean,
    latency_metrics,
    mean,
    time_imports,
)
from layers import Instruments, install_protect_layers
from workloads import explicit_request, modes, protect_layers

#: A round is one new key and four repeats: 80% of requests repeat.
ROUND = 5
#: Whole cycles of 24 new keys every run serves, one daemon each.
MIN_CYCLES = 3
#: A load generator busier than this is measuring itself, not the daemon.
CLIENT_SATURATED = 0.9


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(child) for child in fh.read().split()]
    except OSError:
        return []


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Daemon:
    """One ``repro serve`` process at its CLI defaults, on an ephemeral port."""

    def __init__(self, name: str):
        self.cache_dir = os.path.join(OUT, f"{name}-cache")
        self.log_path = os.path.join(OUT, f"{name}.log")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 60.0) -> float:
        """Start the daemon; returns the seconds until ``/healthz`` is ok."""
        from repro.serve import ServeClient

        begin = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", "0", "--cache-dir", self.cache_dir],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}; see {self.log_path}"
                )
            if time.perf_counter() - begin > timeout:
                raise RuntimeError(f"repro serve announced no port; see {self.log_path}")
            with open(self.log_path) as fh:
                match = re.search(r"listening on http://[0-9.]+:(\d+)", fh.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        with ServeClient("127.0.0.1", self.port, timeout=timeout) as client:
            status, _headers, health = client.get("/healthz")
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"/healthz answered {status}: {health}")
        return time.perf_counter() - begin

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its pool workers."""
        pid = self.proc.pid
        return sum(_peak_rss_mb(p) for p in (pid, *_children(pid)))

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain), then wait for it and its workers."""
        if self.proc is None:
            return
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + timeout
        for pid in workers:
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        self.proc = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _warm_up_jobs() -> List[tuple]:
    """Warm-up protect jobs ``(program, seed)`` at the daemon's default
    strategy: two per program, with seeds no cycle uses."""
    from repro.corpus import PROGRAM_NAMES

    return [(name, seed) for name in PROGRAM_NAMES for seed in (0, 1)]


def cycle_keys(seed: int, cycle: int) -> List[tuple]:
    """The requests of cycle ``cycle``, as ``(program, strategy, seed)``
    keys: rounds of a new key, then ``ROUND - 1`` repeats of keys the
    cycle already issued.  New keys walk a seeded order of the 24
    program x strategy pairs, each with a fresh protect seed."""
    from repro.core import STRATEGIES
    from repro.corpus import PROGRAM_NAMES

    order = random.Random(f"serve_mixed:{seed}")
    pairs = [(name, strategy) for name in PROGRAM_NAMES for strategy in STRATEGIES]
    order.shuffle(pairs)
    first_seed = (order.randrange(1, 1 << 20) << 10) + cycle * len(pairs)
    repeats = random.Random(f"serve_mixed:{seed}:{cycle}")
    issued, keys = [], []
    for offset, (name, strategy) in enumerate(pairs):
        issued.append((name, strategy, first_seed + offset))
        keys += [issued[-1]] + [repeats.choice(issued) for _ in range(ROUND - 1)]
    return keys


async def _drive(port: int, keys: List[tuple], clock: HostClock):
    """One cycle, closed loop over one keep-alive connection.  Each
    round's latencies are scaled by ``clock``, calibrated after it.
    Returns the responses, the most threads seen open, and the client's
    CPU share of one core while requests were in flight."""
    from repro.serve import AsyncServeClient

    responses = []
    threads = threading.active_count()
    cpu = wall = 0.0
    async with AsyncServeClient("127.0.0.1", port) as client:
        clock.mark()
        for first in range(0, len(keys), ROUND):
            served = []
            for key in keys[first:first + ROUND]:
                name, strategy, seed = key
                cpu_begin, begin = time.process_time(), time.perf_counter()
                status, headers, payload = await client.post(
                    "/protect", {"program": name, "strategy": strategy, "seed": seed}
                )
                latency = time.perf_counter() - begin
                cpu += time.process_time() - cpu_begin
                wall += latency
                threads = max(threads, threading.active_count())
                served.append({
                    "key": key,
                    "latency": latency,
                    "status": status,
                    "role": headers.get("x-singleflight"),
                    "image": payload.get("fingerprint") if isinstance(payload, dict) else None,
                })
            scale = clock.factor()
            for response in served:
                response["latency"] *= scale
            responses += served
    return responses, threads, cpu / wall


def _warm_up(port: int) -> bool:
    """The warm-up jobs through the daemon; true when all answer 200."""
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        return all(
            client.job("protect", name, seed=seed)[0] == 200
            for name, seed in _warm_up_jobs()
        )


def _prom_totals(text: str) -> Dict[str, float]:
    """Prometheus text -> each series' value summed over its label sets."""
    totals: Dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            totals[series.split("{", 1)[0]] += float(value)
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_ms(responses: List[dict]) -> float:
    return 1000.0 * statistics.median(r["latency"] for r in responses) if responses else 0.0


def serve_mixed(ctx: Context) -> Dict[str, float]:
    """Protect jobs through a ``repro serve`` daemon (module docstring).
    Every distinct key is checked against an in-process protect after
    the daemon has stopped."""
    from repro.cache import cache_session
    from repro.serve import ServeClient
    from repro.serve.jobs import execute_job, make_task

    outcome = ctx.outcome
    nproc = os.cpu_count() or 1
    instruments = Instruments()
    if ctx.traced:
        install_protect_layers(instruments, traced=True)
        instruments.spans = ctx.spans
    trials = []
    ctx.clock.mark()
    for trial in range(SETUP_TRIALS):
        daemon = Daemon(f"serve-setup-{trial}")
        try:
            imports = time_imports(["repro.serve"])
            programs, build = build_corpus(ctx)
            seconds = imports + build + daemon.start()
        finally:
            daemon.stop()
        trials.append(seconds * ctx.clock.factor())
    instruments.spans = None
    responses, cycles, keys = [], [], []
    totals: Dict[str, float] = defaultdict(float)
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < ctx.seconds:
        cycle = cycle_keys(ctx.seed, len(cycles))
        daemon = Daemon(f"serve-{len(cycles)}")
        try:
            daemon.start()
            warmed = _warm_up(daemon.port)
            with ServeClient("127.0.0.1", daemon.port) as client:
                before = _prom_totals(client.get("/metrics")[2])
            served, threads, client_cpu = asyncio.run(
                _drive(daemon.port, cycle, ctx.clock)
            )
            with ServeClient("127.0.0.1", daemon.port) as client:
                after = _prom_totals(client.get("/metrics")[2])
            peak_rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        # The daemon's counters over the timed cycle only (warm-up excluded).
        for name, value in after.items():
            totals[name] += value - before[name]
        cycles.append({
            **latency_metrics([r["latency"] for r in served]),
            "warmed": warmed, "threads": threads,
            "client_cpu": client_cpu, "peak_rss_mb": peak_rss,
        })
        responses += served
        keys += cycle[::ROUND]

    outcome.check(all(c["warmed"] for c in cycles), "a warm-up request was not answered 200")
    outcome.attempted += len(responses)
    served = {}
    for index, response in enumerate(responses):
        key = response["key"]
        outcome.check(response["status"] == 200, f"serve {key}: HTTP {response['status']}", index)
        image = served.setdefault(key, response["image"])
        outcome.check(response["image"] == image, f"serve {key}: a repeat returned another image", index)
    roles = Counter(r["role"] for r in responses)
    repeats = roles["cache-hit"] + roles["follower"]
    outcome.check(
        repeats * ROUND == (ROUND - 1) * len(responses),
        f"repeat share {repeats}/{len(responses)}, designed {ROUND - 1}/{ROUND}",
    )
    outcome.exact("serve_mixed/repeat_share", repeats / len(responses))
    threads = max(c["threads"] for c in cycles)
    client_cpu = max(c["client_cpu"] for c in cycles)
    outcome.check(threads <= nproc, f"{threads} threads open, nproc {nproc}")
    outcome.check(
        client_cpu < CLIENT_SATURATED,
        f"the load generator was saturated ({client_cpu:.0%} of a core)",
    )

    # Each distinct key against an in-process protect of the same job,
    # with the decode and gadget caches warmed by the same warm-up jobs
    # as the daemon's workers.  The first cycle (one key per pair) also
    # feeds Fig. 5 and the trace.
    first = set(cycle_keys(ctx.seed, 0)[::ROUND])
    references, records = {}, []
    with cache_session():
        for name, seed in _warm_up_jobs():
            execute_job(make_task("protect", name, seed=seed))
        ctx.clock.mark()
        for index, key in enumerate(keys):
            for traced in modes(ctx, index) if key in first else (False,):
                protected, record = explicit_request(ctx, instruments, programs, key, traced)
                if not traced:
                    references[key] = (protected, record)
                records.append(record)
    instruments.restore()
    fig5 = Fig5(outcome, programs)
    slowdowns, overheads = [], []
    for key, (protected, record) in references.items():
        label = record["label"]
        outcome.check(
            served.get(key) == record["exact"]["image"],
            f"{label}: the served image differs from an in-process protect",
            label,
        )
        if key in first:
            slowdowns.append(fig5.slowdown(label, key[0], protected.image))
            if not ctx.traced and key[0] == OVERHEAD_PROGRAM:
                overheads.append(fig5.overhead(label, key[0], protected))

    if not ctx.traced:
        return {
            "setup_s": statistics.median(trials),
            **{
                name: statistics.median(c[name] for c in cycles)
                for name in ("requests_per_s", "latency_p50_ms", "latency_p95_ms")
            },
            "peak_rss_mb": max(c["peak_rss_mb"] for c in cycles),
            "protected_overhead_pct": mean(overheads),
            "chain_slowdown_x": geomean(slowdowns),
        }
    leaders = [r for r in responses if r["role"] == "leader"]
    hits = [r for r in responses if r["role"] == "cache-hit"]
    count = len(responses)
    leader_overheads = [
        1000.0 * (r["latency"] - references[r["key"]][1]["wall"]) for r in leaders
    ]
    ledger = protect_layers(ctx, records)
    ledger.update({
        "serve.role.leader": roles["leader"] / count,
        "serve.role.follower": roles["follower"] / count,
        "serve.role.cache_hit": roles["cache-hit"] / count,
        "serve.repeat_share": repeats / count,
        "cache.serve.hit_ratio": _ratio(
            totals["cache_serve_hits_total"],
            totals["cache_serve_hits_total"] + totals["cache_serve_misses_total"],
        ),
        "serve.hit_ms_p50": _median_ms(hits),
        "serve.miss_ms_p50": _median_ms(leaders),
        "serve.leader_overhead_ms_p50": (
            statistics.median(leader_overheads) if leader_overheads else 0.0
        ),
        "serve.batch_size_mean": _ratio(
            totals["serve_batch_size_sum"], totals["serve_batch_size_count"]
        ),
        "serve.rejected": totals["serve_rejections_total"]
        + sum(r["status"] != 200 for r in responses),
        "load.client_cpu_share": client_cpu,
    })
    return ledger
