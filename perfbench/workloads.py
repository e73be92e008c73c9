"""In-process workloads: ``protect_auto`` and ``protect_explicit``.

Both are closed loops with one client in this process and the content
cache off.  Requests are timed as their caller sees them, scaled to the
reference host's speed (``common.HostClock``); correctness
checks and the Fig. 5 numbers are computed after the timed loop.  A
traced run issues every request twice, untraced and traced in
alternating order, so ``trace.overhead_pct`` compares the same jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    HERE,
    OVERHEAD_PROGRAM,
    ROOT,
    Context,
    Fig5,
    geomean,
    job_latency_metrics,
    mean,
    child_env,
    own_peak_rss_mb,
    setup_in_process,
)
from layers import Instruments, install_protect_layers, request_ledger

#: gzip's selection profile runs to completion; wget's stops at the
#: profiler's step limit.
AUTO_PROGRAMS = ("gzip", "wget")

#: protect_explicit repeats its job list at least this often, so each
#: job's latency is a median of repeats.
MIN_PASSES = 3


def modes(ctx: Context, index: int):
    """How request ``index`` runs: untraced, or in a traced run both
    ways, the order alternating so neither side always runs warm."""
    if not ctx.traced:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def protect_exact(protected) -> dict:
    """The exact outputs of one protect: image identity and counts."""
    report = protected.report
    return {
        "image": protected.image.fingerprint(),
        "gadgets_found": report.existing_gadgets,
        "chain_words": sum(chain.word_count for chain in report.chains),
    }


def explicit_request(ctx: Context, instruments: Instruments, programs, job, traced: bool):
    """One protect-only request with the verification function named,
    as the pipeline and serve issue it, timed as a miss of the protect
    result cache.  Returns ``(protected, record)``; the record's wall
    time is host-speed scaled."""
    from repro.core import Parallax, ProtectConfig

    name, strategy, seed = job
    label = f"{ctx.workload}/{name}/{strategy}/{seed}"
    config = ProtectConfig(
        strategy=strategy, verification_functions=[f"digest_{name}"], seed=seed
    )
    instruments.spans = ctx.spans if traced else None
    root = ctx.spans.start("request", key=label) if traced else None
    begin = time.perf_counter()
    protected = Parallax(config).protect(programs[name], use_cache=False)
    wall = time.perf_counter() - begin
    if root is not None:
        ctx.spans.end(root)
    instruments.spans = None
    wall *= ctx.clock.factor()
    instruments.take("core.protector")
    exact = protect_exact(protected)
    ctx.outcome.exact(label, exact)
    record = {"label": label, "traced": traced, "wall": wall, "root": root, "exact": exact}
    return protected, record


def protect_layers(ctx: Context, records: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of protect requests: self times and coverage
    from the traced requests, counts, corpus build, tracing overhead."""
    traced = [r for r in records if r["traced"]]
    untraced = {}
    for r in records:
        if not r["traced"]:
            untraced.setdefault(r["label"], r["wall"])
    paired = [r for r in traced if r["label"] in untraced]
    ledger = request_ledger(ctx.spans, [r["root"] for r in traced])
    exact = [r["exact"] for r in traced if "exact" in r]
    ledger["gadgets.found"] = mean(e["gadgets_found"] for e in exact)
    ledger["ropc.chain_words"] = mean(e["chain_words"] for e in exact)
    ledger["corpus.build_ms"] = ctx.corpus_build_ms()
    # Median over same-job pairs: one pair caught by outside load moves
    # a ratio of sums by more than the tracing costs.
    ledger["trace.overhead_pct"] = 100.0 * statistics.median(
        r["wall"] / untraced[r["label"]] - 1 for r in paired
    )
    return ledger


def _rate(count: float, ms: float) -> float:
    return count / (ms / 1000.0) if ms else 0.0


# -- protect_auto ---------------------------------------------------------


def protect_auto(ctx: Context) -> Dict[str, float]:
    """The full ``repro protect PROGRAM --strategy S --json`` flow on
    gzip and wget: build, baseline run, §VII-B auto-selection, protect,
    protected run, behaviour comparison.  The strategy rotates from the
    seed."""
    import repro.cli as cli
    from repro.core import STRATEGIES

    instruments = Instruments()
    install_protect_layers(instruments, traced=ctx.traced)
    instruments.spans = ctx.spans
    programs, setup_s = setup_in_process(ctx, ["repro.cli"])
    records = []
    index = 0
    ctx.clock.mark()
    start = time.perf_counter()
    while True:
        for name in AUTO_PROGRAMS:
            strategy = STRATEGIES[(ctx.seed + index) % len(STRATEGIES)]
            for traced in modes(ctx, index):
                records.append(_auto_request(ctx, cli, instruments, name, strategy, traced))
            index += 1
        if time.perf_counter() - start >= ctx.seconds:
            break
    instruments.restore()
    done = [r for r in records if "exact" in r]
    if ctx.traced:
        ledger = protect_layers(ctx, records)
        traced = [r for r in done if r["traced"]]
        profile_steps = mean(r["exact"]["profile_steps"] for r in traced)
        run_steps = mean(
            r["exact"]["baseline_steps"] + r["exact"]["protected_steps"] for r in traced
        )
        ledger.update({
            "emu.profiler.steps": profile_steps,
            "emu.profiler.steps_per_s": _rate(profile_steps, ledger["emu.profiler.run_ms"]),
            "emu.profiler.truncated": len(
                {r["name"] for r in traced if r["exact"]["profile_truncated"]}
            ),
            "emu.run_steps": run_steps,
            "emu.steps_per_s": _rate(run_steps, ledger["emu.run_ms"]),
        })
        return ledger
    overheads, slowdowns = _auto_fig5(ctx, programs, done)
    return {
        "setup_s": setup_s,
        **job_latency_metrics(records),
        "peak_rss_mb": own_peak_rss_mb(),
        "protected_overhead_pct": mean(overheads),
        "chain_slowdown_x": geomean(slowdowns),
    }


def _auto_request(ctx: Context, cli, instruments: Instruments, name, strategy, traced) -> dict:
    """One CLI protect request, timed; its outputs checked afterwards."""
    from repro.emu import StepLimitExceeded

    outcome = ctx.outcome
    outcome.attempted += 1
    request = outcome.attempted
    key = f"protect_auto/{name}/{strategy}"
    stdout = io.StringIO()
    instruments.spans = ctx.spans if traced else None
    root = ctx.spans.start("request", key=key) if traced else None
    begin = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(["protect", name, "--strategy", strategy, "--json"])
    wall = time.perf_counter() - begin
    if root is not None:
        ctx.spans.end(root)
    instruments.spans = None
    wall *= ctx.clock.factor()
    record = {
        "label": key, "name": name, "strategy": strategy,
        "traced": traced, "wall": wall, "root": root,
    }
    profiles = instruments.take("emu.profiler")
    runs = instruments.take("emu.run")
    protects = instruments.take("core.protector")
    if not outcome.check(
        status == 0 and len(profiles) == 1 and len(runs) == 2 and len(protects) == 1,
        f"{key}: exit {status} after {len(profiles)} profile run(s), "
        f"{len(runs)} run(s), {len(protects)} protect(s)",
        request,
    ):
        return record
    (profile, _profiler), = profiles
    baseline, run = runs
    protected = protects[0]
    selected = [chain.function for chain in protected.report.chains]
    outcome.check(
        selected == [f"digest_{name}"],
        f"{key}: selected {selected}, the corpus answer is digest_{name}",
        request,
    )
    outcome.check(
        not baseline.crashed
        and not run.crashed
        and run.stdout == baseline.stdout
        and run.exit_status == baseline.exit_status,
        f"{key}: protected stdout or exit status differs from the baseline",
        request,
    )
    outcome.check(
        json.loads(stdout.getvalue()).get("behaviour_preserved") is True,
        f"{key}: the CLI reports behaviour not preserved",
        request,
    )
    exact = {
        **protect_exact(protected),
        "selected": selected,
        "profile_steps": profile.steps,
        "profile_truncated": isinstance(profile.fault, StepLimitExceeded),
        "baseline_steps": baseline.steps,
        "protected_steps": run.steps,
        "baseline_cycles": baseline.cycles,
        "protected_cycles": run.cycles,
    }
    outcome.exact(key, exact)
    record.update(exact=exact, baseline=baseline, run=run, protected=protected, selected=selected)
    return record


def _auto_fig5(ctx: Context, programs, records: List[dict]):
    """Fig. 5 over all four strategies, so the numbers do not depend on
    the seed's rotation: chain slowdowns for gzip and wget, overheads
    for ``OVERHEAD_PROGRAM``.  The request's own strategy comes from the
    request; the other three are protected with the function it
    selected."""
    from repro.core import Parallax, ProtectConfig, STRATEGIES

    fig5 = Fig5(ctx.outcome, programs)
    overheads, slowdowns = [], []
    for name in AUTO_PROGRAMS:
        record = next((r for r in records if r["name"] == name), None)
        if record is None:
            continue
        for strategy in STRATEGIES:
            key = f"fig5/{name}/{strategy}"
            if strategy == record["strategy"]:
                protected, run = record["protected"], record["run"]
            else:
                config = ProtectConfig(
                    strategy=strategy, verification_functions=record["selected"]
                )
                protected, run = Parallax(config).protect(programs[name]), None
            slowdowns.append(fig5.slowdown(key, name, protected.image))
            if name == OVERHEAD_PROGRAM:
                overheads.append(
                    fig5.overhead(key, name, protected, record["baseline"], run)
                )
    return overheads, slowdowns


# -- protect_explicit -----------------------------------------------------


def explicit_jobs(seed: int) -> List[tuple]:
    """Every program x strategy pair with a protect seed drawn from the
    workload seed, in a seeded order."""
    from repro.core import STRATEGIES
    from repro.corpus import PROGRAM_NAMES

    rng = random.Random(f"protect_explicit:{seed}")
    jobs = [
        (name, strategy, rng.randrange(1, 1 << 31))
        for name in PROGRAM_NAMES
        for strategy in STRATEGIES
    ]
    rng.shuffle(jobs)
    return jobs


def protect_explicit(ctx: Context) -> Dict[str, float]:
    """Protect-only requests over every program x strategy, in complete
    passes (at least ``MIN_PASSES``, then until ``--seconds``); no
    emulation may run inside a request.

    Untraced, each timed pass runs in a fresh interpreter
    (``explicit_pass.py``): the same pass ran up to ~35% faster in one
    interpreter than in the next, so each job's latency is the median
    over processes.  This process then protects every job once, untimed,
    for the checks; its exact outputs must match the passes'.
    """
    instruments = Instruments()
    if ctx.traced:
        install_protect_layers(instruments, traced=True)
        instruments.spans = ctx.spans
    programs, setup_s = setup_in_process(ctx, ["repro.core", "repro.corpus"])
    outcome = ctx.outcome
    jobs = explicit_jobs(ctx.seed)
    records = []
    peak_rss = 0.0
    ctx.clock.mark()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < ctx.seconds:
        if ctx.traced:
            for index, job in enumerate(jobs):
                for traced in modes(ctx, index):
                    outcome.attempted += 1
                    records.append(
                        explicit_request(ctx, instruments, programs, job, traced)[1]
                    )
        else:
            timed, pass_rss = _explicit_pass(ctx)
            outcome.attempted += len(timed)
            records += timed
            peak_rss = max(peak_rss, pass_rss)
        passes += 1
    emulated = len(instruments.take("emu.profiler")) + len(instruments.take("emu.run"))
    outcome.check(emulated == 0, f"{emulated} emulation run(s) inside protect-only requests")
    instruments.restore()
    first = {}
    for job in jobs:
        protected, record = explicit_request(ctx, instruments, programs, job, False)
        first[record["label"]] = (job[0], protected)
    fig5 = Fig5(outcome, programs)
    slowdowns = [
        fig5.slowdown(label, name, protected.image)
        for label, (name, protected) in first.items()
    ]
    if ctx.traced:
        return protect_layers(ctx, records)
    overheads = [
        fig5.overhead(label, name, protected)
        for label, (name, protected) in first.items()
        if name == OVERHEAD_PROGRAM
    ]
    return {
        "setup_s": setup_s,
        **job_latency_metrics(records),
        "peak_rss_mb": max(peak_rss, own_peak_rss_mb()),
        "protected_overhead_pct": mean(overheads),
        "chain_slowdown_x": geomean(slowdowns),
    }


def _explicit_pass(ctx: Context):
    """One timed pass in a fresh interpreter; returns its request
    records (exact outputs checked here) and its peak RSS in MB."""
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "explicit_pass.py"), str(ctx.seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        check=True, timeout=170,
    )
    timed = json.loads(result.stdout.splitlines()[-1])
    records = []
    for label, (wall, exact) in timed["requests"].items():
        ctx.outcome.exact(label, exact)
        records.append({"label": label, "traced": False, "wall": wall})
    return records, timed["peak_rss_mb"]
