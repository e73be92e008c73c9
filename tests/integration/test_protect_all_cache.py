"""Cold vs warm ``protect-all --jobs 2`` over one shared disk cache.

Two subprocess runs of the whole corpus share a fresh ``--cache-dir``.
The cold run must protect every program (only misses), the warm run
must serve every program from the cache, do at least 3x less worker
time, and report exactly what the cold run reported.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


def _protect_all(out, cache, tag):
    """Run ``protect-all --jobs 2``; return (per-program results, metrics)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    metrics = out / f"{tag}-metrics.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "protect-all",
         "--jobs", "2", "--cache-dir", str(cache),
         "--metrics", str(metrics), "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(metrics.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("protect_all_cache")
    cache = out / "cache"
    cold = _protect_all(out, cache, "cold")
    warm = _protect_all(out, cache, "warm")
    return cold, warm


def test_cold_run_only_misses(runs):
    (_results, metrics), _warm = runs
    assert metrics["cache.protect.misses"]["value"] >= 6, metrics
    assert metrics.get("cache.protect.hits", {}).get("value", 0) == 0


def test_warm_run_hits_for_every_program(runs):
    _cold, (_results, metrics) = runs
    assert metrics["cache.protect.hits"]["value"] > 0, metrics
    assert (
        metrics["pipeline.cache_hits"]["value"]
        == metrics["pipeline.programs"]["value"]
    ), metrics


def test_warm_run_does_a_third_of_the_work(runs):
    (cold, _), (warm, _) = runs
    cold_work = sum(r["elapsed_s"] for r in cold)
    warm_work = sum(r["elapsed_s"] for r in warm)
    ratio = cold_work / warm_work
    assert ratio >= 3, (
        f"warm rerun only {ratio:.1f}x less work "
        f"({cold_work:.2f}s cold, {warm_work:.2f}s warm)"
    )


def test_cold_and_warm_reports_are_identical(runs):
    (cold, _), (warm, _) = runs
    cold_reports = {r["program"]: r["report"] for r in cold}
    warm_reports = {r["program"]: r["report"] for r in warm}
    assert cold_reports == warm_reports
