"""``repro top``: a live terminal dashboard over the event journal.

``repro top`` is to ``repro stats`` what ``top`` is to ``ps``: instead
of summarizing a finished run's artifacts, it watches a run *while it
is happening* and redraws a small dashboard — protect/attack/pipeline
throughput (windowed rate + EWMA), engine mix (block compiles and
invalidations), pipeline cache hit rate, the hottest block starts,
and per-request-context lanes when the run is labeled.

The transport is deliberately dumb: the producing run streams its
flight-recorder events as NDJSON to a file (``--journal-follow
PATH``), and ``repro top`` tails that file across process boundaries —
no sockets, no shared memory, works over NFS and in CI logs.  The same
code renders a finished journal file post-hoc (``--once``), which is
how the tests pin the output down.

Time base: event ``ts`` values (the producer's perf-counter offsets).
"Now" for rate windows is the newest timestamp seen, so a replayed
journal shows exactly the rates the live run saw and a stalled run's
rates visibly decay only as new events (or the run's end) arrive.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, TextIO

from .windows import WindowSet

__all__ = ["JournalTail", "TopDashboard", "run_top"]

#: ANSI clear-screen + cursor-home, prefixed to every live frame.
CLEAR = "\x1b[2J\x1b[H"

#: Event kinds grouped as "work" for the throughput table, in display
#: order; kinds outside this list render below, ranked by volume.
WORK_KINDS = ("protect", "rewrite", "attack", "pipeline.task")

ENGINE_KINDS = ("block_compile", "block_invalidate")


class JournalTail:
    """Incremental reader of an NDJSON journal being written by a run.

    ``poll()`` parses every *complete* line appended since the last
    call; a partially written trailing line is left in the buffer for
    the next poll, so a reader racing the writer never sees torn JSON.
    A missing file is not an error — the producer may not have opened
    it yet — and truncation (file shrank) restarts from the top.
    """

    __slots__ = ("path", "_offset", "_buffer")

    def __init__(self, path: str):
        self.path = path
        self._offset = 0
        self._buffer = ""

    def poll(self) -> List[dict]:
        try:
            with open(self.path) as fh:
                fh.seek(0, 2)
                size = fh.tell()
                if size < self._offset:
                    self._offset = 0
                    self._buffer = ""
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        data = self._buffer + chunk
        lines = data.split("\n")
        self._buffer = lines.pop()
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return records


def _fmt_rate(value: float) -> str:
    return f"{value:8.2f}/s"


def _fmt_pct(num: float, den: float) -> str:
    return f"{num / den:6.1%}" if den else "   n/a"


class TopDashboard:
    """Aggregates journal events and renders dashboard frames.

    Feed it events (from a :class:`JournalTail`, or directly as a
    recorder subscriber) and call :meth:`render`.  All derived numbers
    come from :class:`~repro.telemetry.windows.WindowSet` rolling
    windows plus a handful of monotonic totals, so a frame is cheap to
    build no matter how long the run has been going.
    """

    HOT_LIMIT = 5

    def __init__(self, window_seconds: float = 30.0, source: str = ""):
        self.source = source
        self.windows = WindowSet(window_seconds=window_seconds)
        self.totals: Dict[str, int] = {}
        self.latest_ts = 0.0
        self.events_seen = 0
        self.finished: Optional[dict] = None
        self._cache_hits = 0
        self._cache_misses = 0
        self._hot_blocks: Dict[str, int] = {}
        self._context_totals: Dict[str, Dict[str, int]] = {}
        self._started_wall = time.time()
        # Serve lane: single-flight role mix, backpressure, live queue
        # gauges and per-tenant throughput from `repro serve` journals.
        self._serve_roles: Dict[str, int] = {}
        self._serve_rejects: Dict[str, int] = {}
        self._serve_inflight = 0
        self._serve_queued = 0
        self._serve_tenants: Dict[str, int] = {}
        self._serve_tenant_windows = WindowSet(
            window_seconds=window_seconds, group_by="tenant"
        )

    # -- feeding --------------------------------------------------------

    def feed(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "journal_summary":
            self.finished = record
            return
        if rtype != "event":
            return
        kind = record.get("kind", "?")
        self.events_seen += 1
        self.totals[kind] = self.totals.get(kind, 0) + 1
        ts = record.get("ts")
        if isinstance(ts, (int, float)) and ts > self.latest_ts:
            self.latest_ts = float(ts)
        self.windows.feed_event(record)
        if kind == "pipeline.task":
            if record.get("cache_hit"):
                self._cache_hits += 1
            else:
                self._cache_misses += 1
        elif kind == "block_compile":
            start = record.get("start")
            if start is not None:
                key = start if isinstance(start, str) else f"{start:#x}"
                self._hot_blocks[key] = self._hot_blocks.get(key, 0) + 1
        elif kind == "serve.request":
            role = record.get("singleflight", "?")
            self._serve_roles[role] = self._serve_roles.get(role, 0) + 1
            inflight = record.get("in_flight")
            if isinstance(inflight, int):
                self._serve_inflight = inflight
            queued = record.get("queued")
            if isinstance(queued, int):
                self._serve_queued = queued
            tenant = (record.get("ctx") or {}).get("tenant")
            if tenant is not None:
                self._serve_tenants[tenant] = (
                    self._serve_tenants.get(tenant, 0) + 1
                )
                self._serve_tenant_windows.feed_event(record)
        elif kind == "serve.reject":
            reason = record.get("reason", "?")
            self._serve_rejects[reason] = self._serve_rejects.get(reason, 0) + 1
        ctx = record.get("ctx")
        if ctx:
            lane = ",".join(f"{k}={v}" for k, v in sorted(ctx.items()))
            per = self._context_totals.setdefault(lane, {})
            per[kind] = per.get(kind, 0) + 1

    def feed_many(self, records) -> int:
        fed = 0
        for record in records:
            self.feed(record)
            fed += 1
        return fed

    # -- rendering ------------------------------------------------------

    def _throughput_rows(self, now: float) -> List[str]:
        rows = []
        shown = [k for k in WORK_KINDS if k in self.totals]
        extra = sorted(
            (
                k
                for k in self.totals
                if k not in WORK_KINDS and k not in ENGINE_KINDS
            ),
            key=lambda k: (-self.totals[k], k),
        )
        for kind in shown + extra[:4]:
            window = self.windows.rate_window(kind)
            rate = window.rate(now) if window else 0.0
            ewma = window.ewma_rate(now) if window else 0.0
            seconds = self.windows.value_window(kind, "seconds")
            if seconds is not None and seconds.count(now):
                lat = (
                    f"  p50 {seconds.quantile(0.5, now) * 1e3:8.2f}ms"
                    f"  p95 {seconds.quantile(0.95, now) * 1e3:8.2f}ms"
                )
            else:
                lat = ""
            rows.append(
                f"  {kind:<16} {self.totals[kind]:>10,}"
                f"  {_fmt_rate(rate)}  ewma {_fmt_rate(ewma)}{lat}"
            )
        return rows

    def _serve_rows(self, now: float) -> List[str]:
        """The serving lane: role mix, backpressure, gauges, tenants."""
        total = sum(self._serve_roles.values())
        rejected = sum(self._serve_rejects.values())
        if not total and not rejected:
            return []
        rows = []
        coalesced = total - self._serve_roles.get("leader", 0)
        role_bits = "  ".join(
            f"{role} {self._serve_roles[role]:,}"
            for role in ("leader", "cache-hit", "follower")
            if role in self._serve_roles
        )
        rows.append(
            f"serve              {total:>10,} req   "
            f"coalesced {_fmt_pct(coalesced, total)}   {role_bits}"
        )
        gauge_bits = (
            f"  in flight {self._serve_inflight:,}"
            f"   queued {self._serve_queued:,}"
        )
        if rejected:
            reject_bits = ", ".join(
                f"{reason} {count:,}"
                for reason, count in sorted(self._serve_rejects.items())
            )
            gauge_bits += f"   rejected {rejected:,} ({reject_bits})"
        rows.append(gauge_bits)
        if self._serve_tenants:
            rows.append("  tenants")
            ranked = sorted(
                self._serve_tenants.items(), key=lambda kv: (-kv[1], kv[0])
            )
            for tenant, count in ranked[: self.HOT_LIMIT]:
                key = f"serve.request[tenant={tenant}]"
                window = self._serve_tenant_windows.rate_window(key)
                rate = window.rate(now) if window else 0.0
                seconds = self._serve_tenant_windows.value_window(key, "seconds")
                lat = ""
                if seconds is not None and seconds.count(now):
                    lat = f"  p95 {seconds.quantile(0.95, now) * 1e3:8.2f}ms"
                rows.append(
                    f"    {tenant:<14} {count:>8,} req  {_fmt_rate(rate)}{lat}"
                )
        return rows

    def render(self, now: Optional[float] = None) -> str:
        now = self.latest_ts if now is None else now
        lines: List[str] = []
        header = f"repro top — {self.events_seen:,} events"
        if self.source:
            header += f" from {self.source}"
        header += f" — run clock {now:8.2f}s"
        if self.finished is not None:
            dropped = self.finished.get("dropped", 0)
            header += f" — run finished ({dropped:,} events dropped)"
        lines.append(header)
        lines.append("")
        if not self.events_seen:
            lines.append("  (waiting for events...)")
            return "\n".join(lines) + "\n"
        lines.append(
            f"throughput (window {self.windows.window_seconds:g}s)"
        )
        lines.extend(self._throughput_rows(now))
        engine = [k for k in ENGINE_KINDS if k in self.totals]
        if engine:
            lines.append("engine mix")
            for kind in engine:
                window = self.windows.rate_window(kind)
                rate = window.rate(now) if window else 0.0
                lines.append(
                    f"  {kind:<16} {self.totals[kind]:>10,}  {_fmt_rate(rate)}"
                )
        tasks = self._cache_hits + self._cache_misses
        if tasks:
            lines.append(
                f"pipeline cache     hit {_fmt_pct(self._cache_hits, tasks)}"
                f"   ({self._cache_hits:,}/{tasks:,} tasks)"
            )
        if self._hot_blocks:
            ranked = sorted(
                self._hot_blocks.items(), key=lambda kv: (-kv[1], kv[0])
            )
            shown = ", ".join(
                f"{start} x{count}" for start, count in ranked[: self.HOT_LIMIT]
            )
            lines.append(f"hot blocks         {shown}")
        lines.extend(self._serve_rows(now))
        if self._context_totals:
            lines.append("contexts")
            for lane in sorted(self._context_totals):
                per = self._context_totals[lane]
                summary = "  ".join(
                    f"{kind} {per[kind]:,}"
                    for kind in sorted(per, key=lambda k: (-per[k], k))[:4]
                )
                lines.append(f"  {{{lane}}}  {summary}")
        return "\n".join(lines) + "\n"


def run_top(
    path: str,
    interval: float = 1.0,
    duration: Optional[float] = None,
    once: bool = False,
    window_seconds: float = 30.0,
    out: Optional[TextIO] = None,
    clear: bool = True,
) -> TopDashboard:
    """Tail ``path`` and redraw the dashboard until the run ends.

    ``once`` renders a single frame from the journal's current content
    (no clearing, no loop) — the post-hoc and CI mode.  Otherwise the
    screen refreshes every ``interval`` seconds until ``duration``
    elapses, the producer writes its end-of-run summary line, or the
    user interrupts.  Returns the dashboard (tests inspect it).
    """
    import sys

    out = sys.stdout if out is None else out
    tail = JournalTail(path)
    dashboard = TopDashboard(window_seconds=window_seconds, source=path)
    if once:
        dashboard.feed_many(tail.poll())
        out.write(dashboard.render())
        out.flush()
        return dashboard
    deadline = None if duration is None else time.monotonic() + duration
    try:
        while True:
            dashboard.feed_many(tail.poll())
            frame = dashboard.render()
            out.write(CLEAR + frame if clear else frame)
            out.flush()
            if dashboard.finished is not None:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return dashboard
