"""Shared pieces of the benchmark: the run context and outcome, the
host-speed clock, set-up timing, the exact-count ledger, and the Fig. 5
reference numbers."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence

from layers import Spans, self_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run artifacts: span files, daemon logs and caches, the exact-count ledger.
OUT = os.path.join(HERE, "out")

#: Variables that would move the program off its defaults.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_EMU_ENGINE", "REPRO_HOTSPOTS")

#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_TRIALS = 5

#: Whose four strategies give ``protected_overhead_pct`` on every
#: workload: the cheapest corpus program to run.
OVERHEAD_PROGRAM = "gzip"

#: The Fig. 5a verification call: ``digest_<program>(12345, 7, &stats)``.
DIGEST_ARGS = (12345, 7)

#: Seconds :func:`calibrate` takes on the reference host (2-core x86-64,
#: Python 3.11, at its fast phase).  Timings are scaled to that speed.
REFERENCE_CALIBRATION_S = 0.005


def calibrate() -> float:
    """Seconds the host now takes for a fixed pure-Python loop of dict
    stores, lookups and integer arithmetic; the fastest of three runs,
    so a scheduler interruption does not count."""
    best = math.inf
    for _ in range(3):
        begin = time.perf_counter()
        table, acc = {}, 0
        for i in range(40_000):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0) ^ i
        best = min(best, time.perf_counter() - begin)
    return best


class HostClock:
    """Scales wall times to the reference host's speed.

    On a shared host, CPU speed can swing by up to 2x within minutes,
    which no amount of work in one run averages out.  So every timed
    interval sits between two :func:`calibrate` runs and is multiplied
    by ``REFERENCE_CALIBRATION_S`` over their mean.  The loop runs none
    of the program's code, so a change to the program moves a scaled
    time exactly as much as the raw one.
    """

    def __init__(self) -> None:
        #: Every calibration of the run, in seconds.
        self.samples: List[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        seconds = calibrate()
        self.samples.append(seconds)
        return seconds

    def mark(self) -> None:
        """Start an interval: calibrate now."""
        self._last = self._sample()

    def factor(self) -> float:
        """End the interval since the last mark or factor (and start the
        next): the scale for wall times measured inside it."""
        before, self._last = self._last, self._sample()
        return REFERENCE_CALIBRATION_S / ((before + self._last) / 2)


class Outcome:
    """Requests attempted, checks failed, and the exact counts seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self._failed: set = set()
        self._exact: Dict[str, object] = {}

    def check(self, ok: bool, message: str, request=None) -> bool:
        """Count a failed check against ``request`` (default: the run)."""
        if not ok:
            self.failures.append(message)
            self._failed.add(message if request is None else ("request", request))
        return ok

    @property
    def failed(self) -> int:
        return min(len(self._failed), self.attempted)

    def exact(self, key: str, values) -> None:
        """Record exact counts; a job seen twice must repeat them."""
        values = json.loads(json.dumps(values))
        known = self._exact.setdefault(key, values)
        self.check(known == values, f"{key}: exact counts drifted within the run: {known} != {values}")

    def commit_exact(self) -> None:
        """Check the run's exact counts against earlier runs of the same
        program sources in this checkout, and add the new ones to their
        ledger, ``out/exact-<source digest>.json``.  Other sources may
        count differently: a change that shortens chains is no drift."""
        from repro.cache import package_source_digest

        path = os.path.join(OUT, f"exact-{package_source_digest()[:16]}.json")
        try:
            with open(path) as fh:
                known = json.load(fh)
        except FileNotFoundError:
            known = {}
        for key, values in self._exact.items():
            if key in known:
                self.check(
                    known[key] == values,
                    f"{key}: exact counts drifted across runs: {known[key]} != {values}",
                )
            else:
                known[key] = values
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(known, fh, sort_keys=True)
        os.replace(tmp, path)


class Context:
    """One run: its arguments, its outcome and, when traced, its spans."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.outcome = Outcome()
        self.clock = HostClock()
        self.spans = Spans() if traced else None
        #: One ``setup`` root span per set-up trial (traced runs).
        self.setup_roots: List[dict] = []

    def corpus_build_ms(self) -> float:
        """Mean ms of one whole-corpus build across the set-up trials."""
        if not self.setup_roots:
            return 0.0
        total = self_seconds(self.spans, self.setup_roots).get("corpus.build", 0.0)
        return 1000.0 * total / len(self.setup_roots)


def child_env() -> Dict[str, str]:
    """Environment for the program's own processes: at its defaults."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = SRC
    return env


def time_imports(modules: Sequence[str]) -> float:
    """Wall seconds for a fresh interpreter to import ``modules``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=ROOT, env=child_env(), check=True, timeout=120,
    )
    return time.perf_counter() - start


def build_corpus(ctx: Context):
    """Build the six corpus programs; returns ``(programs, seconds)``."""
    import repro.corpus as corpus

    root = ctx.spans.start("setup") if ctx.spans is not None else None
    start = time.perf_counter()
    programs = {name: corpus.build_program(name) for name in corpus.PROGRAM_NAMES}
    seconds = time.perf_counter() - start
    if root is not None:
        ctx.spans.end(root)
        ctx.setup_roots.append(root)
    return programs, seconds


def setup_in_process(ctx: Context, modules: Sequence[str]):
    """Set an in-process workload up ``SETUP_TRIALS`` times: imports in
    a fresh interpreter plus a corpus build.  Returns the last corpus
    and the median set-up seconds (host-speed scaled)."""
    trials = []
    ctx.clock.mark()
    for _ in range(SETUP_TRIALS):
        imports = time_imports(modules)
        programs, build = build_corpus(ctx)
        trials.append((imports + build) * ctx.clock.factor())
    return programs, statistics.median(trials)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    """A one-client closed loop's rate (one over the mean latency) and
    latency percentiles."""
    return {
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p95_ms": 1000.0 * percentile(latencies, 0.95),
    }


def job_latency_metrics(records: Sequence[dict]) -> Dict[str, float]:
    """Latency per distinct job as the median of its repeats, so a burst
    of outside load during one pass does not move the result; the
    one-client closed loop's rate is one over their mean."""
    walls: Dict[str, List[float]] = {}
    for record in records:
        walls.setdefault(record["label"], []).append(record["wall"])
    per_job = [statistics.median(w) for w in walls.values()]
    return {
        "requests_per_s": 1.0 / statistics.fmean(per_job),
        "latency_p50_ms": 1000.0 * statistics.median(per_job),
        "latency_p95_ms": 1000.0 * percentile(per_job, 0.95),
    }


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_call(program, image):
    """``(eax, cycles)`` of one Fig. 5a verification call on ``image``."""
    from repro.emu import Emulator

    emulator = Emulator(image, max_steps=20_000_000)
    eax = emulator.call_function(
        image.symbols[f"digest_{program.name}"].vaddr,
        [*DIGEST_ARGS, program.data.addr("stats")],
    )
    return eax, emulator.cycles


class Fig5:
    """Fig. 5a chain slowdowns and Fig. 5b whole-program overheads of a
    run's protected images, with the checks that make them mean
    something.  Computed after the timed requests."""

    def __init__(self, outcome: Outcome, programs: dict):
        self.outcome = outcome
        self.programs = programs
        self._native: dict = {}
        self._baselines: dict = {}

    def slowdown(self, key: str, name: str, image) -> float:
        """The verification call on ``image`` must return what the
        native function returns; its cycles over native are the slowdown."""
        program = self.programs[name]
        if name not in self._native:
            self._native[name] = digest_call(program, program.image)
        native_eax, native_cycles = self._native[name]
        eax, cycles = digest_call(program, image)
        self.outcome.check(
            eax == native_eax,
            f"{key}: verification call returned {eax:#x}, the native function {native_eax:#x}",
            key,
        )
        self.outcome.exact(
            f"{key}/chain",
            {"image": image.fingerprint(), "cycles": cycles, "native_cycles": native_cycles},
        )
        return cycles / native_cycles

    def overhead(self, key: str, name: str, protected, baseline=None, run=None) -> float:
        """Whole-program overhead in percent; runs what is not given."""
        if baseline is None:
            if name not in self._baselines:
                self._baselines[name] = self.programs[name].run()
            baseline = self._baselines[name]
        if run is None:
            run = protected.run()
        self.outcome.check(
            not run.crashed
            and run.stdout == baseline.stdout
            and run.exit_status == baseline.exit_status,
            f"{key}: protected run diverged from the baseline",
            key,
        )
        self.outcome.exact(
            f"{key}/run",
            {"baseline_cycles": baseline.cycles, "protected_cycles": run.cycles},
        )
        return 100.0 * (run.cycles / baseline.cycles - 1)
