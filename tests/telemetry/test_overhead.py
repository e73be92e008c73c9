"""The telemetry overhead gate: alternating off/on pairs, the median
per-pair verdict and the 5% budget (benchmarks/bench_telemetry_overhead.py)."""

import importlib
import json
import os
import sys
from types import SimpleNamespace

import pytest

from repro.telemetry import get_metrics

BENCHMARKS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
)


@pytest.fixture
def gate(monkeypatch):
    """The benchmark module, imported with its history disabled."""
    monkeypatch.setenv("REPRO_BENCH_HISTORY", "")
    monkeypatch.syspath_prepend(BENCHMARKS)
    for name in ("_shared", "bench_telemetry_overhead"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("bench_telemetry_overhead")


def scripted(monkeypatch, gate, pairs):
    """Make the gate's timer return the (off, on) ``pairs`` in order."""
    times = iter(t for pair in pairs for t in pair)
    monkeypatch.setattr(gate, "_timed", lambda workload: next(times))


def test_report_fraction_and_verdict(monkeypatch, gate, tmp_path, capsys):
    """The script exits 0 within budget and 1 over it, and writes its
    verdict either way; faster-with-telemetry noise clamps to zero."""
    finished = SimpleNamespace(crashed=False, fault=None)
    monkeypatch.setattr(
        gate._shared, "program",
        lambda name: SimpleNamespace(run=lambda **_: finished),
    )
    output = tmp_path / "gate.json"

    scripted(monkeypatch, gate, [(1.0, 1.03)])
    assert gate.main(["--repeats", "1", "--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert payload["fraction"] == pytest.approx(0.03)
    assert payload["within_budget"]
    assert "recorder_self_seconds" not in payload

    scripted(monkeypatch, gate, [(1.0, 1.2)])
    assert gate.main(["--repeats", "1", "--output", str(output)]) == 1
    assert not json.loads(output.read_text())["within_budget"]
    assert "OVER" in capsys.readouterr().out

    scripted(monkeypatch, gate, [(1.0, 0.9)])
    assert gate.main(["--repeats", "1", "--output", str(output)]) == 0
    assert json.loads(output.read_text())["fraction"] == 0.0


def test_importing_the_benchmarks_leaves_telemetry_as_it_was(gate):
    # the fixture imported _shared afresh: metrics stay off
    assert not get_metrics().enabled


def test_measure_overhead_runs_workload_both_ways(gate):
    calls = {"n": 0, "enabled_seen": []}

    def workload():
        calls["n"] += 1
        calls["enabled_seen"].append(get_metrics().enabled)
        get_metrics().counter("w").inc()

    result = gate.measure(workload, pairs=2)
    # 1 warmup, then the arms alternate: off, on, off, on
    assert calls["n"] == 5
    assert calls["enabled_seen"][1:] == [False, True, False, True]
    assert result["repeats"] == 2
    assert result["off_seconds"] > 0 and result["on_seconds"] > 0
    assert result["within_budget"] == (result["fraction"] <= gate.BUDGET)


def test_overhead_is_the_median_of_per_pair_fractions(monkeypatch, gate):
    """Scripted (off, on) timings whose three candidate statistics all
    differ: the verdict is the median of the pairs' own fractions (3%),
    not the ratio of the arms' medians (50%) or of their bests (4%)."""
    pairs = [(1.0, 1.02), (2.0, 2.06), (1.0, 1.5), (0.5, 0.52), (3.0, 3.03)]
    scripted(monkeypatch, gate, pairs)
    result = gate.measure(lambda: None, pairs=5)
    assert result["pair_fractions"] == pytest.approx(
        [0.02, 0.03, 0.5, 0.04, 0.01]
    )
    assert result["fraction"] == pytest.approx(0.03)
    assert result["within_budget"]
    assert (result["off_seconds"], result["on_seconds"]) == (1.0, 1.5)

    # a negative median (telemetry-on ran faster) clamps to zero
    scripted(monkeypatch, gate, [(1.0, 0.9), (1.0, 1.01), (1.0, 0.95)])
    result = gate.measure(lambda: None, pairs=3)
    assert result["pair_fractions"] == pytest.approx([-0.1, 0.01, -0.05])
    assert result["fraction"] == 0.0
