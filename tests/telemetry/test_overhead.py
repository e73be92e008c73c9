"""Overhead self-accounting: off-vs-on measurement and the 5% budget."""

import pytest

from repro.telemetry import (
    MetricsRegistry,
    get_metrics,
    measure_overhead,
    publish_overhead,
    self_accounting,
    telemetry_session,
)
from repro.telemetry.overhead import (
    BUDGET_ENV,
    DEFAULT_BUDGET,
    OverheadReport,
    configured_budget,
)


def test_report_fraction_and_verdict():
    report = OverheadReport(
        off_seconds=1.0, on_seconds=1.03, budget=0.05, repeats=3
    )
    assert report.fraction == pytest.approx(0.03)
    assert report.within_budget
    over = OverheadReport(
        off_seconds=1.0, on_seconds=1.2, budget=0.05, repeats=3
    )
    assert not over.within_budget
    assert "OVER" in str(over)
    # faster-with-telemetry noise clamps to zero, never negative
    noise = OverheadReport(
        off_seconds=1.0, on_seconds=0.9, budget=0.05, repeats=3
    )
    assert noise.fraction == 0.0


def test_budget_env_override(monkeypatch):
    assert configured_budget() == DEFAULT_BUDGET
    monkeypatch.setenv(BUDGET_ENV, "0.10")
    assert configured_budget() == pytest.approx(0.10)
    monkeypatch.setenv(BUDGET_ENV, "-1")
    with pytest.raises(ValueError):
        configured_budget()


def test_measure_overhead_runs_workload_both_ways():
    calls = {"n": 0, "enabled_seen": []}

    def workload():
        calls["n"] += 1
        calls["enabled_seen"].append(get_metrics().enabled)
        get_metrics().counter("w").inc()

    report = measure_overhead(workload, repeats=2, warmup=1, budget=0.05)
    # 1 warmup, then the arms alternate: off, on, off, on
    assert calls["n"] == 5
    assert calls["enabled_seen"][1:] == [False, True, False, True]
    assert report.repeats == 2
    assert report.off_seconds > 0 and report.on_seconds > 0
    assert report.to_dict()["within_budget"] == report.within_budget


def test_publish_overhead_gauges():
    report = OverheadReport(
        off_seconds=1.0, on_seconds=1.02, budget=0.05, repeats=3,
        recorder_self_seconds=0.001,
    )
    registry = MetricsRegistry()
    publish_overhead(report, registry)
    samples = registry.to_dict()
    assert samples["telemetry.overhead.fraction"]["value"] == pytest.approx(
        0.02
    )
    assert samples["telemetry.overhead.budget"]["value"] == 0.05
    assert samples["telemetry.overhead.recorder_self_seconds"][
        "value"
    ] == pytest.approx(0.001)


def test_self_accounting_snapshots_recorder_cost():
    with telemetry_session(recorder=True) as (metrics, _tracer):
        from repro.telemetry import get_recorder

        for i in range(300):
            get_recorder().record("k", i=i)
        self_seconds = self_accounting(metrics)
        assert self_seconds > 0.0
        sample = metrics.to_dict()["telemetry.overhead.recorder_self_seconds"]
        assert sample["value"] == pytest.approx(self_seconds)
