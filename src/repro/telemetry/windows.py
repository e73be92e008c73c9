"""Rolling-window aggregation over the flight-recorder event stream.

The flight recorder answers *what happened*; this module answers *what
is happening right now* for the serve daemon's ``/stats`` route.  A
:class:`RollingWindow` keeps a ring of one-second buckets (count, sum,
and a capped sample list per bucket) and derives per-window rates, an
exponentially weighted moving average of the per-bucket rate, and
sliding quantiles (p50/p95/p99) from the retained samples — all
O(buckets) to read and O(1) to feed.

A :class:`WindowSet` owns one rate window per event kind plus one value
window per ``(kind, numeric field)`` pair, and plugs directly into
:meth:`FlightRecorder.subscribe
<repro.telemetry.recorder.FlightRecorder.subscribe>`, so every recorded
event advances the windows immediately.

Time handling: windows never call ``time`` themselves on the feed
path.  Events carry their own ``ts`` (the recorder's perf-counter
offset) and that is the time base.  Reads take an explicit ``now``
(defaulting to the injectable ``clock``, then to the newest fed
timestamp), which keeps every derived number deterministic under test.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["RollingWindow", "WindowSet", "nearest_rank"]

#: Per-bucket cap on retained samples for quantile estimation.  Buckets
#: past the cap keep counting/summing but stop retaining values; the
#: snapshot reports how many were capped so readers can tell estimated
#: quantiles from exact ones.
DEFAULT_BUCKET_SAMPLES = 512

#: Default EWMA smoothing factor (weight of the newest bucket).
DEFAULT_ALPHA = 0.3


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ascending ``values`` (0.0 if empty)."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]


class RollingWindow:
    """Ring of 1-second buckets with rate / EWMA / quantile reads.

    ``observe(value, now)`` lands ``value`` in the bucket covering
    ``now``; buckets older than ``window_seconds`` are recycled in
    place, so memory is fixed at ``window_seconds / bucket_seconds``
    slots regardless of event volume.
    """

    __slots__ = (
        "window_seconds",
        "bucket_seconds",
        "max_bucket_samples",
        "alpha",
        "_clock",
        "_n",
        "_epochs",
        "_counts",
        "_sums",
        "_samples",
        "_capped",
        "_latest",
    )

    def __init__(
        self,
        window_seconds: float = 60.0,
        bucket_seconds: float = 1.0,
        max_bucket_samples: int = DEFAULT_BUCKET_SAMPLES,
        alpha: float = DEFAULT_ALPHA,
        clock: Optional[Callable[[], float]] = None,
    ):
        if window_seconds <= 0 or bucket_seconds <= 0:
            raise ValueError("window and bucket sizes must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.window_seconds = float(window_seconds)
        self.bucket_seconds = float(bucket_seconds)
        self.max_bucket_samples = max_bucket_samples
        self.alpha = alpha
        self._clock = clock
        self._n = max(1, int(math.ceil(window_seconds / bucket_seconds)))
        # Parallel arrays, indexed by bucket-epoch modulo ring size.  An
        # epoch of -1 marks a never-used slot.
        self._epochs = [-1] * self._n
        self._counts = [0] * self._n
        self._sums = [0.0] * self._n
        self._samples: List[List[float]] = [[] for _ in range(self._n)]
        self._capped = [0] * self._n
        self._latest: Optional[float] = None

    # -- feeding --------------------------------------------------------

    def observe(self, value: float = 1.0, now: Optional[float] = None) -> None:
        now = self._resolve_now(now)
        epoch = int(now // self.bucket_seconds)
        slot = epoch % self._n
        if self._epochs[slot] != epoch:
            self._epochs[slot] = epoch
            self._counts[slot] = 0
            self._sums[slot] = 0.0
            self._samples[slot] = []
            self._capped[slot] = 0
        self._counts[slot] += 1
        self._sums[slot] += value
        bucket = self._samples[slot]
        if len(bucket) < self.max_bucket_samples:
            bucket.append(value)
        else:
            self._capped[slot] += 1
        if self._latest is None or now > self._latest:
            self._latest = now

    # -- reading --------------------------------------------------------

    def _resolve_now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if self._clock is not None:
            return self._clock()
        if self._latest is not None:
            return self._latest
        return 0.0

    def _live_slots(self, now: float) -> Iterable[int]:
        """Slot indices within the window, oldest bucket first."""
        newest = int(now // self.bucket_seconds)
        for epoch in range(newest - self._n + 1, newest + 1):
            if epoch < 0:
                continue
            slot = epoch % self._n
            if self._epochs[slot] == epoch:
                yield slot

    def count(self, now: Optional[float] = None) -> int:
        now = self._resolve_now(now)
        return sum(self._counts[s] for s in self._live_slots(now))

    def total(self, now: Optional[float] = None) -> float:
        now = self._resolve_now(now)
        return sum(self._sums[s] for s in self._live_slots(now))

    def rate(self, now: Optional[float] = None) -> float:
        """Events per second over the (elapsed part of the) window."""
        now = self._resolve_now(now)
        count = self.count(now)
        # Early in a run less than a full window has elapsed; dividing
        # by the full span would understate the rate of a fresh stream.
        span = min(self.window_seconds, max(now, self.bucket_seconds))
        return count / span if span > 0 else 0.0

    def mean(self, now: Optional[float] = None) -> float:
        now = self._resolve_now(now)
        count = self.count(now)
        return self.total(now) / count if count else 0.0

    def ewma_rate(self, now: Optional[float] = None) -> float:
        """EWMA of per-bucket rates, oldest bucket folded in first."""
        now = self._resolve_now(now)
        newest = int(now // self.bucket_seconds)
        value: Optional[float] = None
        for epoch in range(newest - self._n + 1, newest + 1):
            if epoch < 0:
                continue
            slot = epoch % self._n
            bucket_count = (
                self._counts[slot] if self._epochs[slot] == epoch else 0
            )
            bucket_rate = bucket_count / self.bucket_seconds
            value = (
                bucket_rate
                if value is None
                else self.alpha * bucket_rate + (1.0 - self.alpha) * value
            )
        return value or 0.0

    def quantile(self, q: float, now: Optional[float] = None) -> float:
        """Sliding quantile over retained samples (nearest-rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        now = self._resolve_now(now)
        values: List[float] = []
        for slot in self._live_slots(now):
            values.extend(self._samples[slot])
        values.sort()
        return nearest_rank(values, q)

    def snapshot(self, now: Optional[float] = None) -> dict:
        now = self._resolve_now(now)
        capped = sum(self._capped[s] for s in self._live_slots(now))
        return {
            "count": self.count(now),
            "sum": self.total(now),
            "mean": self.mean(now),
            "rate": self.rate(now),
            "ewma_rate": self.ewma_rate(now),
            "p50": self.quantile(0.50, now),
            "p95": self.quantile(0.95, now),
            "p99": self.quantile(0.99, now),
            "capped_samples": capped,
            "window_seconds": self.window_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"<RollingWindow {self.window_seconds:g}s/"
            f"{self.bucket_seconds:g}s, count={self.count()}>"
        )


class WindowSet:
    """Per-event-kind rolling windows fed by a recorder subscription.

    One rate window per event kind, plus one value window per
    ``(kind, field)`` for the numeric fields in :attr:`VALUE_FIELDS`:
    ``seconds`` (stage durations), ``cycles`` and ``detected_at``
    (attack latencies).
    """

    __slots__ = ("window_seconds", "_rates", "_values", "_recorder")

    VALUE_FIELDS: Tuple[str, ...] = ("seconds", "cycles", "detected_at")

    def __init__(self, window_seconds: float = 60.0):
        self.window_seconds = float(window_seconds)
        self._rates: Dict[str, RollingWindow] = {}
        self._values: Dict[str, RollingWindow] = {}
        self._recorder = None

    # -- wiring ---------------------------------------------------------

    def subscribe_to(self, recorder) -> "WindowSet":
        """Attach to a :class:`FlightRecorder`; every event feeds us."""
        recorder.subscribe(self.feed_event)
        self._recorder = recorder
        return self

    def close(self) -> None:
        if self._recorder is not None:
            self._recorder.unsubscribe(self.feed_event)
            self._recorder = None

    # -- feeding --------------------------------------------------------

    def _window(self, table: Dict[str, RollingWindow], key: str) -> RollingWindow:
        window = table.get(key)
        if window is None:
            window = table[key] = RollingWindow(window_seconds=self.window_seconds)
        return window

    def feed_event(self, event: dict) -> None:
        """Recorder-subscription callback."""
        if event.get("type") != "event":
            return
        kind = event.get("kind", "?")
        ts = event.get("ts")
        self._window(self._rates, kind).observe(1.0, now=ts)
        for field in self.VALUE_FIELDS:
            value = event.get(field)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self._window(self._values, f"{kind}.{field}").observe(
                    float(value), now=ts
                )

    # -- reading --------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> Dict[str, dict]:
        """Every window's snapshot, keyed ``kind`` / ``kind.field``."""
        out: Dict[str, dict] = {}
        for key in sorted(self._rates):
            out[key] = self._rates[key].snapshot(now)
        for key in sorted(self._values):
            out[key] = self._values[key].snapshot(now)
        return out

    def __repr__(self) -> str:
        return f"<WindowSet {len(self._rates)} kinds>"
