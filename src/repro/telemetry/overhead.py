"""Telemetry-of-telemetry: enabled-overhead measurement and budget.

The whole telemetry substrate is justified by one claim: leaving it on
is cheap.  This module makes that claim falsifiable.
:func:`measure_overhead` times a representative workload with
telemetry fully disabled and again with metrics + tracing + recorder
enabled, and reports the enabled-overhead fraction; CI runs it (see
``benchmarks/bench_telemetry_overhead.py``) and fails the build when
the fraction exceeds the budget (default **5%**, override with
``REPRO_TELEMETRY_BUDGET``).

The same numbers are also observable *from inside a run*:
:func:`publish_overhead` turns a report into ``telemetry.overhead.*``
gauges, and :func:`self_accounting` snapshots the recorder's sampled
``self_seconds`` — so an exported metrics artifact carries the cost of
its own collection.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "DEFAULT_BUDGET",
    "OverheadReport",
    "measure_overhead",
    "publish_overhead",
    "self_accounting",
]

#: Maximum tolerated enabled-telemetry overhead as a fraction of the
#: disabled runtime.  ``REPRO_TELEMETRY_BUDGET`` overrides.
DEFAULT_BUDGET = 0.05

BUDGET_ENV = "REPRO_TELEMETRY_BUDGET"


def configured_budget() -> float:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    budget = float(raw)
    if budget <= 0:
        raise ValueError(f"{BUDGET_ENV} must be positive, got {budget}")
    return budget


@dataclass
class OverheadReport:
    """Result of one off-vs-on overhead measurement."""

    off_seconds: float
    on_seconds: float
    budget: float
    repeats: int
    recorder_self_seconds: float = 0.0

    @property
    def fraction(self) -> float:
        """Enabled overhead relative to the disabled runtime (>= 0)."""
        if self.off_seconds <= 0:
            return 0.0
        return max(0.0, (self.on_seconds - self.off_seconds) / self.off_seconds)

    @property
    def within_budget(self) -> bool:
        return self.fraction <= self.budget

    def to_dict(self) -> dict:
        return {
            "off_seconds": self.off_seconds,
            "on_seconds": self.on_seconds,
            "fraction": self.fraction,
            "budget": self.budget,
            "within_budget": self.within_budget,
            "repeats": self.repeats,
            "recorder_self_seconds": self.recorder_self_seconds,
        }

    def __str__(self) -> str:
        verdict = "within" if self.within_budget else "OVER"
        return (
            f"telemetry overhead {self.fraction:.2%} "
            f"(off {self.off_seconds:.4f}s, on {self.on_seconds:.4f}s; "
            f"{verdict} {self.budget:.0%} budget)"
        )


def _timed(workload: Callable[[], None]) -> float:
    started = time.perf_counter()
    workload()
    return time.perf_counter() - started


def measure_overhead(
    workload: Callable[[], None],
    repeats: int = 3,
    budget: Optional[float] = None,
    warmup: int = 1,
) -> OverheadReport:
    """Time ``workload`` telemetry-off vs telemetry-on, best of
    ``repeats`` per arm, after ``warmup`` untimed calls to absorb
    import/JIT warm-up.  The arms alternate — one off run, then one on
    run, per repeat — so drift in the host's speed lands on both.

    The "on" configuration is the most expensive one a user can turn
    on — metrics, tracing *and* the flight recorder, at their defaults
    — so the reported fraction upper-bounds what any real run pays.
    """
    from . import get_recorder, telemetry_session

    budget = configured_budget() if budget is None else budget
    for _ in range(warmup):
        workload()
    off_seconds = on_seconds = float("inf")
    recorder_self = 0.0
    for _ in range(repeats):
        with telemetry_session(metrics=False, tracing=False):
            off_seconds = min(off_seconds, _timed(workload))
        with telemetry_session(metrics=True, tracing=True, recorder=True):
            on_seconds = min(on_seconds, _timed(workload))
            recorder_self += get_recorder().self_seconds
    return OverheadReport(
        off_seconds=off_seconds,
        on_seconds=on_seconds,
        budget=budget,
        repeats=repeats,
        recorder_self_seconds=recorder_self,
    )


def publish_overhead(report: OverheadReport, registry=None) -> None:
    """Expose a report as ``telemetry.overhead.*`` gauges."""
    if registry is None:
        from . import get_metrics

        registry = get_metrics()
    registry.gauge("telemetry.overhead.fraction").set(report.fraction)
    registry.gauge("telemetry.overhead.off_seconds").set(report.off_seconds)
    registry.gauge("telemetry.overhead.on_seconds").set(report.on_seconds)
    registry.gauge("telemetry.overhead.budget").set(report.budget)
    registry.gauge("telemetry.overhead.recorder_self_seconds").set(
        report.recorder_self_seconds
    )


def self_accounting(registry=None) -> float:
    """Snapshot the recorder's own sampled cost into the registry.

    Returns the recorder's extrapolated ``self_seconds``; the CLI calls
    this just before exporting metrics so every artifact records what
    its journal cost to keep.
    """
    from . import get_recorder

    self_seconds = get_recorder().self_seconds
    if registry is None:
        from . import get_metrics

        registry = get_metrics()
    registry.gauge("telemetry.overhead.recorder_self_seconds").set(self_seconds)
    return self_seconds
