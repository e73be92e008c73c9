"""Telemetry: metrics registry, structured tracing, chain introspection.

Process-wide accessors::

    from repro.telemetry import get_metrics, get_tracer, configure

    configure(metrics=True, tracing=True)   # both start disabled
    with get_tracer().span("protect", program="wget"):
        get_metrics().counter("protect.runs").inc()

The default registry, tracer, and flight recorder start **disabled**:
every instrument accessor returns a shared null object, every span is
the shared null span, and :meth:`FlightRecorder.record` returns
immediately — so instrumented code costs one function call on the cold
paths and literally nothing on the emulator's per-step hot path (hooks
are only installed when a tracer is enabled).  :func:`configure` flips
any side on; :func:`telemetry_session` scopes that to a ``with`` block
and restores the previous state afterwards.

Scoping: every accessor is one lookup of the active :class:`Scope` —
a labeled :class:`TelemetryContext`, or the private scope of a
:func:`capture` — falling back to the process-wide scope.  A context
adopts its samples and spans into its parent under its labels on exit,
and :func:`adopt` merges a captured payload (a pool worker's telemetry)
into the active scope (see :mod:`repro.telemetry.context`).

Exporters live in :mod:`repro.telemetry.export`: Chrome trace-event
JSON from the tracer, Prometheus text from the registry, and the
``repro stats`` dashboard over exported artifacts.  Live rates and
latency quantiles are not kept in-process: a Prometheus scraper derives
them from the counters and histograms that ``/metrics`` exports.  The
enabled-overhead budget is measured from outside, by the off/on gate in
``benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

from .chains import ChainExecutionTracer, ChainStep, trace_chain_run
from .context import (
    Scope,
    TelemetryContext,
    adopt,
    capture,
    clear_context,
    configure,
    current_context,
    current_labels,
    disable,
    get_metrics,
    get_recorder,
    get_tracer,
    set_metrics,
    set_recorder,
    set_tracer,
    telemetry_context,
    telemetry_session,
)
from .export import (
    ARTIFACT_KINDS,
    chrome_trace,
    load_artifact,
    prometheus_text,
    render_stats,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import FlightRecorder
from .tracing import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Tracer",
    "FlightRecorder", "get_recorder", "set_recorder",
    "ChainStep", "ChainExecutionTracer", "trace_chain_run",
    "Scope", "TelemetryContext", "telemetry_context", "current_context",
    "current_labels", "clear_context", "capture", "adopt",
    "chrome_trace", "write_chrome_trace",
    "prometheus_text", "write_prometheus",
    "ARTIFACT_KINDS", "load_artifact", "render_stats",
    "get_metrics", "set_metrics", "get_tracer", "set_tracer",
    "configure", "disable", "telemetry_session",
]
