"""Structured tracing: hierarchical spans over the protect/run pipeline.

A :class:`Span` is one timed region (``protect``, ``find_gadgets``,
``compile_chain``, ``emulate``...) with attributes and a parent link;
the :class:`Tracer` maintains the active-span stack, so spans opened
while another is active nest under it automatically.  Finished spans
are retained; :meth:`Tracer.to_events` turns them into dicts, children
referencing parents by ``span_id``, which
:func:`repro.telemetry.export.chrome_trace` renders as the one trace
export and :meth:`Tracer.ingest` adopts into another tracer.

The disabled tracer returns a shared null span from :meth:`Tracer.span`
so instrumented code needs no ``if`` guards and pays near-zero cost.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed, attributed region of work.

    A span opened by :meth:`Tracer.span` is its own context manager:
    leaving the ``with`` block finishes it on its tracer.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "start_wall",
        "attributes",
        "status",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.start_wall = time.time()
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.status = "ok"

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self, failed=exc_type is not None)
        return False

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ts": self.start_wall,
            "duration_s": self.duration,
            "status": self.status,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        return f"<Span {self.name} #{self.span_id} parent={self.parent_id}>"


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()
    name = "null"
    span_id = -1
    parent_id = None
    attributes: Dict[str, Any] = {}

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory + active-span stack + finished-span store."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []  # finished spans, completion order
        self._stack: List[Span] = []
        self._next_id = 1

    def span(self, name: str, **attributes):
        """Open a span nested under the currently active one.

        The span is a context manager; use ``with tracer.span("x") as s:``.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            attributes=attributes,
            tracer=self,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _finish(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        if failed:
            span.status = "error"
        # Pop back to (and including) this span; tolerates callers that
        # leaked inner spans by closing them implicitly.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = time.perf_counter()
            self.spans.append(top)
        self.spans.append(span)

    # -- queries --------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._next_id = 1

    # -- ingest (spans exported by another tracer) ----------------------

    def ingest(
        self,
        events: List[dict],
        parent_id: Optional[int] = None,
        extra_attributes: Optional[dict] = None,
    ) -> List[Span]:
        """Adopt finished spans exported by another tracer's
        :meth:`to_events`.

        Used by the parallel pipeline to hoist worker spans into the
        parent trace: span ids are remapped into this tracer's id space
        (two passes, because exports arrive in completion order so
        children precede their parents), and spans that were roots in
        the source tracer are re-parented under ``parent_id``.
        Wall-clock ``start_ts`` and durations are preserved; a disabled
        tracer ignores ingests, matching :meth:`span`.

        ``extra_attributes`` are stamped onto every adopted span —
        :func:`repro.telemetry.adopt` tags pool-worker spans
        ``worker_pid`` so the Chrome-trace exporter can lane them per
        process.  The span's own attributes win on key collisions.
        """
        if not self.enabled:
            return []
        id_map: Dict[int, int] = {}
        for event in events:
            if event.get("type") != "span":
                continue
            id_map[event["span_id"]] = self._next_id
            self._next_id += 1
        adopted: List[Span] = []
        for event in events:
            if event.get("type") != "span":
                continue
            old_parent = event.get("parent_id")
            attributes = event.get("attributes")
            if extra_attributes:
                merged = dict(extra_attributes)
                merged.update(attributes or {})
                attributes = merged
            span = Span(
                event["name"],
                span_id=id_map[event["span_id"]],
                parent_id=id_map.get(old_parent, parent_id)
                if old_parent is not None
                else parent_id,
                attributes=attributes,
            )
            span.start_wall = event.get("start_ts", span.start_wall)
            span.end = span.start + event.get("duration_s", 0.0)
            span.status = event.get("status", "ok")
            self.spans.append(span)
            adopted.append(span)
        return adopted

    # -- export ---------------------------------------------------------

    def to_events(self) -> List[dict]:
        return [span.to_dict() for span in self.spans]

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state}, {len(self.spans)} finished spans>"
