"""Telemetry scopes: where metrics, spans and events land.

A :class:`Scope` bundles a label set with a metrics registry, a tracer
and a flight recorder.  Exactly one scope is active per thread/task,
held in a single :mod:`contextvars` ContextVar; when none is active,
the process-wide scope applies.  :func:`get_metrics`,
:func:`get_tracer` and :func:`get_recorder` are each one lookup: the
active scope's object, else the process-wide one.  :func:`set_metrics`
and friends, :func:`configure` and :func:`telemetry_session` swap or
toggle the fields of that process-wide scope.

A :class:`TelemetryContext` is the labeled scope.  It carries a label
set (request id, tenant, engine — any ``str -> str`` mapping), a child
registry whose ``base_labels`` stamp the labels on every instrument,
and a child tracer; it shares its parent's flight recorder, which
stamps the active labels onto each event as a ``ctx`` field, so the
journal holds labeled events as they are recorded.
On exit the context **flushes**: its labeled samples and its spans
(tagged ``ctx.*``) are adopted into the parent scope.  Per-label sums
therefore always equal what an unlabeled run would have recorded — the
reconciliation invariant ``tests/pipeline/test_context_isolation.py``
pins down.

Work that must report its telemetry separately — a pool task, or an
inline task that must behave exactly like one — runs under
:func:`capture`: a private, unlabeled scope whose samples, spans and
events come back as one picklable payload.  :func:`adopt` merges such a
payload into the active scope, which applies that scope's labels
exactly once:

* **threads / asyncio** — the ContextVar gives each thread (and each
  asyncio task) its own active scope;
* **multiprocessing pool workers** — workers start scope-free (see
  :func:`clear_context`), run each task under :func:`capture` and ship
  the payload home, where the parent adopts it inside its own scope.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .metrics import MetricsRegistry, _normalize_labels
from .recorder import _SCOPE, FlightRecorder
from .tracing import Tracer

__all__ = [
    "Scope",
    "TelemetryContext",
    "telemetry_context",
    "current_context",
    "current_labels",
    "clear_context",
    "capture",
    "adopt",
    "get_metrics",
    "set_metrics",
    "get_tracer",
    "set_tracer",
    "get_recorder",
    "set_recorder",
    "configure",
    "disable",
    "telemetry_session",
]

#: Serializes adoptions: two scopes flushing into one parent on
#: different threads interleave safely.
_ADOPT_LOCK = threading.Lock()


class Scope:
    """A label set plus the registry, tracer and recorder it fills.

    Entering a scope makes it the active one for this thread/task.
    """

    __slots__ = ("labels", "metrics", "tracer", "recorder", "_token")

    def __init__(
        self,
        labels: Dict[str, str],
        metrics: MetricsRegistry,
        tracer: Tracer,
        recorder: FlightRecorder,
    ):
        self.labels = labels
        self.metrics = metrics
        self.tracer = tracer
        self.recorder = recorder
        self._token = None

    def __enter__(self) -> "Scope":
        if self._token is not None:
            raise RuntimeError("telemetry scope is not reentrant")
        self._token = _SCOPE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _SCOPE.reset(self._token)
        self._token = None
        return False

    def adopt(
        self, payload: dict, pid: Optional[int] = None, parent_span=None
    ) -> None:
        """Merge a :func:`capture` payload into this scope.

        Samples merge under this registry's base labels; spans are
        adopted under ``parent_span`` (roots otherwise) and tagged
        ``worker_pid``; events are re-recorded with ``pid``.
        """
        with _ADOPT_LOCK:
            self.metrics.merge_samples(payload["metrics"])
            if payload["spans"]:
                self.tracer.ingest(
                    payload["spans"],
                    parent_id=parent_span.span_id if parent_span else None,
                    extra_attributes={"worker_pid": pid} if pid else None,
                )
            if payload["events"]:
                self.recorder.ingest(payload["events"], pid=pid)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.labels}>"


#: The process-wide scope; everything starts disabled.
_GLOBAL = Scope(
    {}, MetricsRegistry(enabled=False), Tracer(enabled=False),
    FlightRecorder(enabled=False),
)


def _active() -> Scope:
    return _SCOPE.get() or _GLOBAL


class TelemetryContext(Scope):
    """One labeled telemetry scope; use as a context manager.

    ::

        with TelemetryContext({"request": "r-17", "tenant": "acme"}):
            protect_all(jobs=2)           # everything lands under r-17

    Nested contexts merge labels (inner keys win); the child registry
    and tracer mirror the enclosing scope's enabled state at
    construction, so a context under disabled telemetry costs two
    small allocations and nothing else.
    """

    __slots__ = ("_parent",)

    def __init__(self, labels: Optional[Mapping] = None):
        parent = _active()
        merged = dict(parent.labels)
        merged.update(_normalize_labels(labels))
        if not merged:
            raise ValueError("a telemetry context needs at least one label")
        super().__init__(
            merged,
            MetricsRegistry(enabled=parent.metrics.enabled, base_labels=merged),
            Tracer(enabled=parent.tracer.enabled),
            parent.recorder,
        )
        self._parent = parent

    def __exit__(self, *exc) -> bool:
        super().__exit__(*exc)
        self.flush()
        return False

    def flush(self) -> None:
        """Adopt the child registry and tracer into the parent scope.

        Idempotent per batch: flushed samples/spans are cleared from
        the child, so flushing mid-run and again at exit never double
        counts.  Samples already carry the labels (``base_labels``
        stamped them); spans get them here as ``ctx.*`` attributes.
        """
        samples = self.metrics.to_dict()
        spans = self.tracer.to_events()
        if not samples and not spans:
            return
        self.metrics.reset()
        self.tracer.reset()
        stamp = {f"ctx.{k}": v for k, v in self.labels.items()}
        for span in spans:
            span["attributes"] = {**stamp, **span["attributes"]}
        self._parent.adopt({"metrics": samples, "spans": spans, "events": []})


def telemetry_context(**labels) -> TelemetryContext:
    """Keyword-argument sugar: ``with telemetry_context(request="r1"):``."""
    return TelemetryContext(labels)


def current_context() -> Optional[TelemetryContext]:
    """The active :class:`TelemetryContext`, or ``None``."""
    scope = _SCOPE.get()
    return scope if isinstance(scope, TelemetryContext) else None


def current_labels() -> Dict[str, str]:
    """The active scope's labels (``{}`` outside any context)."""
    return dict(_active().labels)


def clear_context() -> None:
    """Drop any inherited active scope (pool-worker initializer).

    ``fork``-started workers inherit the parent's ContextVar state; a
    worker that kept the parent's scope would write into a *copy* of
    the parent's child registry and the samples would never make it
    back.  Workers instead run scope-free and ship payloads home.
    """
    _SCOPE.set(None)


# ----------------------------------------------------------------------
# Capture and adopt
# ----------------------------------------------------------------------


def capture(
    body: Callable[[], Any],
    metrics: bool = True,
    tracing: bool = False,
    recording: bool = False,
) -> Tuple[Any, dict]:
    """Run ``body()`` under a private, unlabeled scope.

    Returns ``(result, payload)`` where ``payload`` is the picklable
    ``{"metrics", "spans", "events"}`` telemetry of the body: its
    metric samples when ``metrics``, its spans when ``tracing``, its
    flight-recorder events when ``recording``.  Merge it with
    :func:`adopt`.
    """
    scope = Scope(
        {},
        MetricsRegistry(enabled=metrics),
        Tracer(enabled=tracing),
        FlightRecorder(enabled=recording),
    )
    with scope:
        result = body()
    return result, {
        "metrics": scope.metrics.to_dict(),
        "spans": scope.tracer.to_events(),
        "events": scope.recorder.to_events(),
    }


def adopt(payload: dict, pid: Optional[int] = None, parent_span=None) -> None:
    """Merge a :func:`capture` payload into the active scope.

    Samples merge via :meth:`MetricsRegistry.merge_samples`, spans via
    :meth:`Tracer.ingest` under ``parent_span`` tagged ``worker_pid``,
    events via :meth:`FlightRecorder.ingest` tagged ``pid`` — each
    labeled by the active scope exactly once.
    """
    _active().adopt(payload, pid=pid, parent_span=parent_span)


# ----------------------------------------------------------------------
# Accessors
# ----------------------------------------------------------------------


def get_metrics() -> MetricsRegistry:
    """The active scope's registry (disabled until configured)."""
    return _active().metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    previous, _GLOBAL.metrics = _GLOBAL.metrics, registry
    return previous


def get_tracer() -> Tracer:
    """The active scope's tracer (disabled until configured)."""
    return _active().tracer


def set_tracer(tracer: Tracer) -> Tracer:
    previous, _GLOBAL.tracer = _GLOBAL.tracer, tracer
    return previous


def get_recorder() -> FlightRecorder:
    """The active scope's flight recorder (disabled until configured)."""
    return _active().recorder


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    previous, _GLOBAL.recorder = _GLOBAL.recorder, recorder
    return previous


def configure(
    metrics: Optional[bool] = None,
    tracing: Optional[bool] = None,
    recorder: Optional[bool] = None,
) -> None:
    """Enable/disable the process-wide telemetry objects in place.

    ``None`` leaves that side untouched.  Enabling an already-populated
    registry keeps its instruments; use ``get_metrics().reset()`` for a
    clean slate (likewise ``get_recorder().clear()``).
    """
    if metrics is not None:
        _GLOBAL.metrics.enabled = metrics
    if tracing is not None:
        _GLOBAL.tracer.enabled = tracing
    if recorder is not None:
        _GLOBAL.recorder.enabled = recorder


def disable() -> None:
    configure(metrics=False, tracing=False, recorder=False)


@contextmanager
def telemetry_session(
    metrics: bool = True,
    tracing: bool = True,
    recorder: bool = False,
):
    """Fresh, enabled registry + tracer (+ optional flight recorder)
    for the duration of the block.

    Yields ``(MetricsRegistry, Tracer)``; the previous process-wide
    objects (and their enabled state) are restored on exit.  When
    ``recorder`` is true a fresh :class:`FlightRecorder` of the default
    capacity is installed for the block too — fetch it with
    :func:`get_recorder`.
    """
    new_metrics = MetricsRegistry(enabled=metrics)
    new_tracer = Tracer(enabled=tracing)
    old_metrics = set_metrics(new_metrics)
    old_tracer = set_tracer(new_tracer)
    old_recorder = (
        set_recorder(FlightRecorder(enabled=True))
        if recorder
        else None
    )
    try:
        yield new_metrics, new_tracer
    finally:
        set_metrics(old_metrics)
        set_tracer(old_tracer)
        if old_recorder is not None:
            set_recorder(old_recorder)
