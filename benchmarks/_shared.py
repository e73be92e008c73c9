"""Shared, lazily-built artifacts for the benchmark suite.

Building the six corpus programs and protecting each with four
strategies is expensive; everything is cached at module scope so the
whole suite builds each artifact exactly once.  Artifacts route
through :mod:`repro.pipeline`, so setting ``REPRO_CACHE_DIR`` makes
repeat benchmark runs skip unchanged protections entirely via the
on-disk content-addressed cache.
"""

import json
import os
import platform
import subprocess
import time
from functools import lru_cache

from repro.core import Parallax, ProtectConfig, STRATEGIES
from repro.corpus import PROGRAM_NAMES, build_program_cached
from repro.emu import Emulator

MAX_STEPS = 300_000_000

#: Engine every benchmark emulation routes through: the block engine,
#: so published numbers reflect the fast path.
ENGINE = "block"

#: Where append-only benchmark history lives (one JSONL file per
#: benchmark), consumed by benchmarks/check_regression.py.  Path
#: overridable via REPRO_BENCH_HISTORY; empty string disables.
HISTORY_DIR = os.environ.get(
    "REPRO_BENCH_HISTORY",
    os.path.join(os.path.dirname(__file__), "history"),
)


def git_sha() -> str:
    """The repo's HEAD commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def env_stamp() -> dict:
    """Environment fingerprint stored with every history entry, so a
    'regression' traceable to a machine/interpreter change is visible
    as such."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "engine": ENGINE,
    }


def record_history(benchmark: str, metrics: dict) -> str:
    """Append one run's scalar results to the benchmark's history file.

    ``metrics`` maps metric name -> number; higher must mean better
    (throughputs, speedups — the regression gate assumes this).
    Returns the history path ("" when history is disabled).
    """
    if not HISTORY_DIR:
        return ""
    os.makedirs(HISTORY_DIR, exist_ok=True)
    path = os.path.join(HISTORY_DIR, f"{benchmark}.jsonl")
    entry = {
        "benchmark": benchmark,
        "timestamp": time.time(),
        "git_sha": git_sha(),
        "env": env_stamp(),
        "metrics": {k: float(v) for k, v in metrics.items()},
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True))
        fh.write("\n")
    return path


@lru_cache(maxsize=None)
def program(name):
    return build_program_cached(name)


@lru_cache(maxsize=None)
def baseline_run(name):
    result = program(name).run(max_steps=MAX_STEPS, engine=ENGINE)
    assert not result.crashed, (name, result.fault)
    return result


@lru_cache(maxsize=None)
def protected(name, strategy):
    config = ProtectConfig(
        strategy=strategy, verification_functions=[f"digest_{name}"]
    )
    return Parallax(config).protect(program(name))


@lru_cache(maxsize=None)
def protected_run(name, strategy):
    result = protected(name, strategy).run(max_steps=MAX_STEPS, engine=ENGINE)
    divergence = result.divergence(baseline_run(name))
    assert divergence is None, (name, strategy, divergence)
    return result


def digest_call_cycles(name, image, engine=None):
    """Cycles for one verification-function call on ``image``."""
    prog = program(name)
    emulator = Emulator(image, max_steps=20_000_000, engine=engine or ENGINE)
    before = emulator.cycles
    emulator.call_function(
        image.symbols[f"digest_{name}"].vaddr,
        [12345, 7, prog.data.addr("stats")],
    )
    return emulator.cycles - before
