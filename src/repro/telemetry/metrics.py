"""Metrics registry: counters, gauges and histograms.

The registry is the machine-readable counterpart of the ad-hoc
``summary()``/``report()`` strings scattered through the pipeline.  All
instruments are cheap dictionaries of plain numbers; exporting them is
a single JSON dump, so every benchmark and CLI run can leave a metrics
artifact behind.

Design constraints (see DESIGN.md §Observability):

* **No-op fast path.**  A disabled registry hands out shared null
  instruments whose methods do nothing, so instrumented code pays one
  attribute call and nothing else.  The process-wide default registry
  starts *disabled*; :func:`configure` switches it on.
* **Explicit buckets.**  Histograms take explicit upper bounds
  (``le`` semantics, like Prometheus): an observation lands in the
  first bucket whose bound is >= the value, else in the +Inf overflow.
* **Labels.**  Every accessor takes an optional ``labels`` mapping
  (request id, tenant, engine, attack cell...).  Series with the same
  name but different label sets are independent instruments in one
  *family*; a per-family **cardinality guard** collapses runaway label
  sets into a single ``{overflow="true"}`` series instead of letting
  an unbounded attribute (say, a gadget address) eat the process.
  A registry can carry ``base_labels`` that are stamped onto every
  instrument it hands out — the mechanism request-scoped
  :class:`~repro.telemetry.context.TelemetryContext` child registries
  use so their samples merge into the global registry under the
  request's labels.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "DEFAULT_CYCLE_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "format_series",
]

#: Default buckets for size-ish quantities (words, bytes, counts).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

#: Default buckets for emulated-cycle latencies (detection latency
#: spans from "next gadget dispatch" to "most of the run").
DEFAULT_CYCLE_BUCKETS: Tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)

#: Cap on distinct labeled series per metric family (the cardinality
#: guard).
DEFAULT_MAX_SERIES = 64

#: Name of the counter bumped every time the cardinality guard trips.
CARDINALITY_OVERFLOW_COUNTER = "telemetry.cardinality.overflow"

#: The label set runaway series are collapsed into.
OVERFLOW_LABELS: Dict[str, str] = {"overflow": "true"}

LabelKey = Tuple[Tuple[str, str], ...]


def _ensure_parent_dir(path: str) -> None:
    """Create the parent directory of ``path`` if it is missing, so a
    long run never fails at export time over an absent output dir."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _normalize_labels(labels: Optional[Mapping]) -> Dict[str, str]:
    """Coerce a label mapping to ``str -> str``, rejecting reserved names."""
    if not labels:
        return {}
    out: Dict[str, str] = {}
    for key, value in labels.items():
        key = str(key)
        if key == "le":
            raise ValueError("label name 'le' is reserved for histograms")
        out[key] = str(value)
    return out


def format_series(name: str, labels: Optional[Mapping[str, str]]) -> str:
    """Canonical series key: ``name`` or ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value", "labels")

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.value = 0
        self.labels: Dict[str, str] = dict(labels or {})

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    @property
    def series_key(self) -> str:
        return format_series(self.name, self.labels)

    def to_dict(self) -> dict:
        sample = {"type": "counter", "name": self.name, "value": self.value}
        if self.labels:
            sample["labels"] = dict(self.labels)
        return sample

    def __repr__(self) -> str:
        return f"<Counter {self.series_key}={self.value}>"


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value", "labels")

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.value = 0.0
        self.labels: Dict[str, str] = dict(labels or {})

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    @property
    def series_key(self) -> str:
        return format_series(self.name, self.labels)

    def to_dict(self) -> dict:
        sample = {"type": "gauge", "name": self.name, "value": self.value}
        if self.labels:
            sample["labels"] = dict(self.labels)
        return sample

    def __repr__(self) -> str:
        return f"<Gauge {self.series_key}={self.value}>"


class Histogram:
    """Distribution with explicit bucket upper bounds (``le`` semantics).

    ``le`` semantics means each bound is an *inclusive upper* bound,
    exactly like Prometheus: an observation ``v`` lands in the first
    bucket with ``v <= bound``.  Unlike Prometheus exports, the
    internal ``counts`` are **not cumulative** — ``counts[i]`` holds
    only observations that fit ``buckets[i]`` and no earlier bound,
    and the final extra slot is the +Inf overflow.  (Exporters that
    need Prometheus's cumulative series build a running sum.)

    Alongside ``sum`` the histogram tracks ``sum_sq`` (the sum of
    squared observations) so exports can derive a streaming standard
    deviation without retaining samples.
    """

    __slots__ = (
        "name",
        "help",
        "buckets",
        "counts",
        "count",
        "sum",
        "sum_sq",
        "min",
        "max",
        "labels",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SIZE_BUCKETS,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket bounds")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.labels: Dict[str, str] = dict(labels or {})

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.sum_sq += value * value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation from the streaming moments."""
        if not self.count:
            return 0.0
        mean = self.sum / self.count
        variance = self.sum_sq / self.count - mean * mean
        # Floating-point cancellation can push tiny variances negative.
        return variance ** 0.5 if variance > 0.0 else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) from bucket counts.

        Linear interpolation inside the bucket that holds the target
        rank, like Prometheus's ``histogram_quantile``: observations
        are assumed uniform between a bucket's lower and upper bound.
        The +Inf overflow bucket and the extreme buckets are clamped
        to the tracked ``min``/``max``, so estimates never leave the
        observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile q must be in [0, 1]")
        if not self.count:
            return 0.0
        if q == 0.0:
            return self.min if self.min is not None else 0.0
        target = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            in_bucket = self.counts[index]
            if cumulative + in_bucket >= target:
                lower = self.buckets[index - 1] if index else (
                    self.min if self.min is not None else 0.0
                )
                lower = min(lower, bound)
                fraction = (target - cumulative) / in_bucket
                estimate = lower + (bound - lower) * fraction
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            cumulative += in_bucket
        # Target rank lies in the +Inf overflow: the best bound we have
        # is the largest observation.
        return self.max if self.max is not None else self.buckets[-1]

    @classmethod
    def from_sample(cls, sample: dict) -> "Histogram":
        """Rebuild a histogram from its exported :meth:`to_dict` sample."""
        bounds = [float(b["le"]) for b in sample["buckets"] if b["le"] != "+Inf"]
        histogram = cls(sample["name"], buckets=bounds, labels=sample.get("labels"))
        histogram.counts = [b["count"] for b in sample["buckets"]]
        histogram.count = sample["count"]
        histogram.sum = sample["sum"]
        histogram.sum_sq = sample["sum_sq"]
        histogram.min = sample["min"]
        histogram.max = sample["max"]
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations; the bucket bounds must match."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.series_key}: bucket bounds differ, cannot merge"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.sum_sq += other.sum_sq
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) pairs; the last bound is +Inf."""
        pairs = list(zip(self.buckets, self.counts))
        pairs.append((float("inf"), self.counts[-1]))
        return pairs

    @property
    def series_key(self) -> str:
        return format_series(self.name, self.labels)

    def to_dict(self) -> dict:
        sample = {
            "type": "histogram",
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "sum_sq": self.sum_sq,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "stddev": self.stddev,
            "buckets": [
                {"le": bound if bound != float("inf") else "+Inf", "count": n}
                for bound, n in self.bucket_counts()
            ],
        }
        if self.labels:
            sample["labels"] = dict(self.labels)
        return sample

    def __repr__(self) -> str:
        return f"<Histogram {self.series_key} n={self.count} mean={self.mean:.3g}>"


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instruments handed out by disabled registries.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null", buckets=(1.0,))


class MetricsRegistry:
    """Names (+ label sets) -> instruments, with JSON export.

    Instruments are created on first use and aggregated for the life of
    the registry; re-requesting a name (and label set) returns the same
    instrument.  A disabled registry returns the shared null instruments
    and records nothing.

    ``base_labels`` are merged under every accessor's ``labels`` — the
    scoped child registries of
    :class:`repro.telemetry.context.TelemetryContext` use this to stamp
    a request's label set on everything recorded inside the context.

    :data:`DEFAULT_MAX_SERIES` bounds the number of *labeled* series per
    family; the first label set past the cap (and every one after it) collapses
    into a shared ``{overflow="true"}`` series and bumps the
    ``telemetry.cardinality.overflow`` counter, so an unbounded label
    value cannot grow the registry without bound.
    """

    def __init__(
        self,
        enabled: bool = True,
        base_labels: Optional[Mapping[str, str]] = None,
    ):
        self.enabled = enabled
        self.base_labels: Dict[str, str] = _normalize_labels(base_labels)
        #: family name -> {label key -> instrument}
        self._families: Dict[str, Dict[LabelKey, object]] = {}

    # -- instrument accessors ------------------------------------------

    def _series(self, name: str, cls, labels, make):
        """Find-or-create one series, applying base labels and the
        per-family cardinality guard."""
        if self.base_labels:
            effective = dict(self.base_labels)
            if labels:
                effective.update(_normalize_labels(labels))
        else:
            effective = _normalize_labels(labels)
        key: LabelKey = tuple(sorted(effective.items()))
        family = self._families.get(name)
        if family is None:
            family = self._families.setdefault(name, {})
        instrument = family.get(key)
        if instrument is None:
            if key and len(family) >= DEFAULT_MAX_SERIES:
                # Cardinality guard: collapse the runaway label set.
                self.counter(
                    CARDINALITY_OVERFLOW_COUNTER,
                    help="label sets collapsed by the cardinality guard",
                ).inc()
                effective = dict(OVERFLOW_LABELS)
                key = tuple(sorted(effective.items()))
                instrument = family.get(key)
                if instrument is None:
                    instrument = family.setdefault(key, make(effective))
            else:
                instrument = family.setdefault(key, make(effective))
        if not isinstance(instrument, cls):
            raise TypeError(f"{name} is already a {type(instrument).__name__}")
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping] = None
    ) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._series(
            name, Counter, labels, lambda lb: Counter(name, help, labels=lb)
        )

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping] = None
    ) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._series(
            name, Gauge, labels, lambda lb: Gauge(name, help, labels=lb)
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SIZE_BUCKETS,
        help: str = "",
        labels: Optional[Mapping] = None,
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._series(
            name,
            Histogram,
            labels,
            lambda lb: Histogram(name, buckets=buckets, help=help, labels=lb),
        )

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return sum(len(family) for family in self._families.values())

    def __contains__(self, name: str) -> bool:
        if name in self._families:
            return True
        if "{" in name:
            bare = name.split("{", 1)[0]
            family = self._families.get(bare)
            if family:
                return any(
                    inst.series_key == name for inst in family.values()
                )
        return False

    def get(self, name: str, labels: Optional[Mapping] = None):
        """The instrument for ``name`` and ``labels`` (default: the
        unlabeled series), or ``None``."""
        family = self._families.get(name)
        if not family:
            return None
        effective = dict(self.base_labels)
        effective.update(_normalize_labels(labels))
        return family.get(tuple(sorted(effective.items())))

    def series(self, name: str) -> List[object]:
        """Every instrument in the ``name`` family, label-key order."""
        family = self._families.get(name, {})
        return [family[key] for key in sorted(family)]

    def family_total(self, name: str) -> float:
        """Sum of ``value`` across a counter/gauge family's series.

        The reconciliation primitive: per-request labeled series must
        sum to the same total an unlabeled run would have counted.
        """
        return sum(
            inst.value
            for inst in self._families.get(name, {}).values()
            if isinstance(inst, (Counter, Gauge))
        )

    def reset(self) -> None:
        self._families.clear()

    def to_dict(self) -> dict:
        """Flat ``series key -> sample`` mapping, deterministic order."""
        out: Dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family):
                instrument = family[key]
                out[instrument.series_key] = instrument.to_dict()
        return out

    # -- merging (parallel pipeline workers, context flushes) ----------

    def merge_samples(
        self,
        samples: Dict[str, dict],
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold exported samples (another registry's :meth:`to_dict`)
        into this registry.

        Used by the parallel protection pipeline to combine per-worker
        registries into one, and by telemetry contexts to merge scoped
        child registries into the global one: counters add, gauges take
        the incoming value (workers are merged in deterministic input
        order, so the result is reproducible), histograms add
        per-bucket counts.  ``extra_labels`` are stamped under each
        sample's own labels (the sample's labels win on conflict); the
        receiving registry's ``base_labels`` apply on top as usual.
        A disabled registry ignores merges, matching its accessors.
        """
        if not self.enabled:
            return
        extra = _normalize_labels(extra_labels)
        for sample in samples.values():
            kind = sample.get("type")
            name = sample["name"]
            labels = dict(extra)
            labels.update(sample.get("labels") or {})
            if kind == "counter":
                self.counter(name, labels=labels).inc(int(sample["value"]))
            elif kind == "gauge":
                self.gauge(name, labels=labels).set(sample["value"])
            elif kind == "histogram":
                incoming = Histogram.from_sample(sample)
                self.histogram(
                    name, buckets=incoming.buckets, labels=labels
                ).merge(incoming)
            else:
                raise ValueError(f"cannot merge sample of type {kind!r}")

    # -- export ---------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        _ensure_parent_dir(path)
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state}, {len(self)} instruments>"
