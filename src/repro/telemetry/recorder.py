"""Flight recorder: a bounded, structured event journal.

Where the metrics registry aggregates (how many blocks were compiled)
and the tracer times regions (how long did ``protect`` take), the
flight recorder answers *what happened, in order* — the last N
discrete events across every subsystem, cheap enough to leave running
and small enough to dump whole on a crash.

Event kinds recorded by the instrumented subsystems:

========================  =============================================
``protect``               one program protected (protector)
``rewrite``               one binary analyzed/rewritten (rewrite engine)
``chain_dispatch``        a verification chain entered a gadget
                          (chain tracer; only while one is installed)
``chain_corruption``      a dying chain attributed to a gadget
``block_compile``         the block engine compiled a superblock
``block_invalidate``      a superblock was discarded (``tier`` names
                          which coherence tier caught it: ``page`` for
                          the per-page write-version compare, ``store``
                          for an in-block self-modifying store)
``attack``                one attack evaluation scored
``pipeline.task``         one pipeline task merged back in the parent
========================  =============================================

Design constraints (mirroring :mod:`repro.telemetry.metrics`):

* **Bounded.**  Events live in a ring (``collections.deque`` with
  ``maxlen``); the newest ``capacity`` events are kept and ``dropped``
  counts the overwritten ones.  The journal can never grow without
  bound, so it is safe to leave enabled in long runs.  Every run uses
  the default capacity (8192); ``FlightRecorder(capacity=)`` exists so
  tests can wrap a small ring.
* **Near-zero when disabled.**  The process-wide recorder starts
  disabled; :meth:`FlightRecorder.record` returns immediately and hot
  call sites additionally guard with ``if recorder.enabled`` so the
  disabled cost is one attribute load.  Nothing is retained.
* **Monotonic timestamps.**  Events carry :func:`time.perf_counter`
  offsets from the recorder's creation, plus one wall-clock anchor
  (``start_wall``) so exports can be correlated with span traces.
* **Append-only.**  :meth:`record` appends one tuple to the ring and
  does nothing else; events become dicts only when exported.  Live
  rates and latencies come from the metrics registry's ``/metrics``
  export, not from the journal.
* **Labeled by scope.**  ``record`` stamps the active telemetry
  scope's labels (a :class:`~repro.telemetry.context.TelemetryContext`)
  onto the event as a ``ctx`` field; keys the event already carries in
  its own ``ctx`` win.  One process-wide recorder therefore serves every
  concurrent request.

The recorder does not time itself: its cost is part of the enabled
overhead that ``benchmarks/bench_telemetry_overhead.py`` measures by
comparing telemetry-off and telemetry-on runs of one workload.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .metrics import _ensure_parent_dir

__all__ = ["FlightRecorder"]

#: The active :class:`~repro.telemetry.context.Scope` for this thread /
#: task (``None`` = the process-wide scope).  It is defined here, below
#: :mod:`repro.telemetry.context` in the import graph, because
#: :meth:`FlightRecorder.record` reads the active scope's labels.
_SCOPE: ContextVar = ContextVar("repro.telemetry.scope", default=None)


class FlightRecorder:
    """Ring-buffered structured event journal."""

    #: Ring capacity (events retained) when the constructor names none.
    DEFAULT_CAPACITY = 8192

    __slots__ = (
        "enabled",
        "capacity",
        "start_wall",
        "_t0",
        "_events",
        "_seq",
    )

    def __init__(self, capacity: Optional[int] = None, enabled: bool = True):
        if capacity is None:
            capacity = self.DEFAULT_CAPACITY
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self.start_wall = time.time()
        self._t0 = time.perf_counter()
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0

    # -- recording ------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; no-op while disabled.

        ``fields`` must be JSON-serializable; ``seq``, ``ts`` and
        ``kind`` are reserved names.  The active scope's labels become
        the ``ctx`` field (the event's own ``ctx`` keys win).
        """
        if not self.enabled:
            return
        scope = _SCOPE.get()
        if scope is not None and scope.labels:
            ctx = fields.get("ctx")
            if ctx is None:
                fields = {"ctx": scope.labels, **fields}
            else:
                fields["ctx"] = {**scope.labels, **ctx}
        seq = self._seq + 1
        self._seq = seq
        ts = time.perf_counter() - self._t0
        self._events.append((seq, ts, kind, fields))

    def ingest(self, events: Iterable[dict], pid: Optional[int] = None) -> int:
        """Adopt events exported by another recorder (a pool worker).

        Each event is re-recorded here — new sequence numbers, this
        recorder's clock, the active scope's labels (see :meth:`record`)
        — preserving the original fields; the worker's own relative
        timestamp survives as ``worker_ts`` and ``pid`` rides along.
        Returns the number of events adopted.
        """
        if not self.enabled:
            return 0
        adopted = 0
        for event in events:
            if event.get("type") != "event":
                continue
            fields = {
                k: v
                for k, v in event.items()
                if k not in ("type", "seq", "ts", "kind")
            }
            if "ts" in event:
                fields.setdefault("worker_ts", event["ts"])
            if pid is not None:
                fields.setdefault("pid", pid)
            self.record(event.get("kind", "?"), **fields)
            adopted += 1
        return adopted

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events overwritten by the ring since creation/clear."""
        return self._seq - len(self._events)

    def kinds(self) -> Dict[str, int]:
        """Event count per kind among the retained events."""
        out: Dict[str, int] = {}
        for _, _, kind, _ in self._events:
            out[kind] = out.get(kind, 0) + 1
        return out

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0

    # -- export ---------------------------------------------------------

    def iter_events(self) -> Iterator[dict]:
        for seq, ts, kind, fields in self._events:
            event = {"type": "event", "seq": seq, "ts": round(ts, 9), "kind": kind}
            event.update(fields)
            yield event

    def to_events(self) -> List[dict]:
        """Retained events, oldest first, as JSON-ready dicts."""
        return list(self.iter_events())

    def summary(self) -> dict:
        return {
            "type": "journal_summary",
            "recorded": self._seq,
            "retained": len(self._events),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "start_wall": self.start_wall,
            "kinds": self.kinds(),
        }

    def dump(self, fh) -> None:
        """Write the journal (events + summary) as JSONL to ``fh``.

        Used for on-demand dumps and crash dumps alike — the CLI calls
        this from a ``finally`` (and from its SIGTERM/SIGINT handlers)
        so a faulting or killed run still leaves its journal behind.
        """
        for event in self.iter_events():
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
        fh.write(json.dumps(self.summary(), sort_keys=True))
        fh.write("\n")

    def write_jsonl(self, path: str) -> None:
        _ensure_parent_dir(path)
        with open(path, "w") as fh:
            self.dump(fh)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<FlightRecorder {state}, {len(self._events)}/{self.capacity} "
            f"events, {self.dropped} dropped>"
        )
