"""Metrics registry: instruments, buckets, no-op mode, export."""

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    telemetry_session,
    get_metrics,
)
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    assert registry.counter("x") is counter  # same instrument on re-request
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    gauge.set(10)
    gauge.add(-3)
    assert gauge.value == 7


def test_histogram_bucket_boundaries_le_semantics():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(1, 10, 100))
    # A value exactly on a bound lands in that bucket (le semantics).
    for value in (0, 1, 1.5, 10, 10.1, 100, 101, 5000):
        hist.observe(value)
    counts = dict()
    for (bound, count) in hist.bucket_counts():
        counts[bound] = count
    assert counts[1.0] == 2      # 0, 1
    assert counts[10.0] == 2     # 1.5, 10
    assert counts[100.0] == 2    # 10.1, 100
    assert counts[float("inf")] == 2  # 101, 5000
    assert hist.count == 8
    assert hist.min == 0 and hist.max == 5000


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("empty", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("dup", buckets=(1, 1, 2))


def test_histogram_unsorted_buckets_are_sorted():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(100, 1, 10))
    assert hist.buckets == (1.0, 10.0, 100.0)


def test_type_conflicts_rejected():
    registry = MetricsRegistry()
    registry.counter("name")
    with pytest.raises(TypeError):
        registry.gauge("name")
    with pytest.raises(TypeError):
        registry.histogram("name")


def test_disabled_registry_emits_nothing():
    registry = MetricsRegistry(enabled=False)
    registry.counter("c").inc(100)
    registry.gauge("g").set(5)
    registry.histogram("h").observe(1)
    assert len(registry) == 0
    assert registry.to_dict() == {}
    # Disabled accessors hand out the shared null instruments.
    assert registry.counter("c") is NULL_COUNTER
    assert registry.gauge("g") is NULL_GAUGE
    assert registry.histogram("h") is NULL_HISTOGRAM
    assert NULL_COUNTER.value == 0  # the null counter never moves


def test_json_export_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").inc(3)
    registry.histogram("b", buckets=(1, 2)).observe(1.5)
    path = tmp_path / "metrics.json"
    registry.write_json(str(path))
    data = json.loads(path.read_text())
    assert data["a"]["value"] == 3
    assert data["b"]["count"] == 1


def test_default_registry_starts_disabled():
    # the process-wide default must be a no-op unless configured
    registry = get_metrics()
    if registry.enabled:
        pytest.skip("another component enabled the default registry")
    registry.counter("should_not_exist").inc()
    assert "should_not_exist" not in registry


def test_telemetry_session_scopes_and_restores():
    before = get_metrics()
    with telemetry_session() as (metrics, tracer):
        assert get_metrics() is metrics
        assert metrics.enabled and tracer.enabled
        metrics.counter("inside").inc()
    assert get_metrics() is before
    assert "inside" not in get_metrics()


def test_merge_samples_counters_add_gauges_set():
    worker_a = MetricsRegistry(enabled=True)
    worker_a.counter("jobs").inc(3)
    worker_a.gauge("depth").set(5)
    worker_b = MetricsRegistry(enabled=True)
    worker_b.counter("jobs").inc(4)
    worker_b.gauge("depth").set(9)

    parent = MetricsRegistry(enabled=True)
    parent.counter("jobs").inc()
    parent.merge_samples(worker_a.to_dict())
    parent.merge_samples(worker_b.to_dict())
    assert parent.counter("jobs").value == 8
    assert parent.gauge("depth").value == 9  # last merge wins


def test_merge_samples_histograms_fold_buckets_and_extremes():
    worker_a = MetricsRegistry(enabled=True)
    worker_a.histogram("lat", buckets=(1, 10)).observe(0.5)
    worker_a.histogram("lat", buckets=(1, 10)).observe(200)
    worker_b = MetricsRegistry(enabled=True)
    worker_b.histogram("lat", buckets=(1, 10)).observe(7)

    parent = MetricsRegistry(enabled=True)
    parent.merge_samples(worker_a.to_dict())
    parent.merge_samples(worker_b.to_dict())
    hist = parent.histogram("lat", buckets=(1, 10))
    counts = dict(hist.bucket_counts())
    assert counts[1.0] == 1 and counts[10.0] == 1
    assert counts[float("inf")] == 1
    assert hist.count == 3
    assert hist.sum == pytest.approx(207.5)
    assert hist.min == 0.5 and hist.max == 200


def test_merge_samples_rejects_mismatched_buckets():
    worker = MetricsRegistry(enabled=True)
    worker.histogram("lat", buckets=(1, 10)).observe(2)
    parent = MetricsRegistry(enabled=True)
    parent.histogram("lat", buckets=(5, 50)).observe(2)
    with pytest.raises(ValueError):
        parent.merge_samples(worker.to_dict())


def test_merge_samples_disabled_registry_is_noop():
    worker = MetricsRegistry(enabled=True)
    worker.counter("jobs").inc(5)
    parent = MetricsRegistry(enabled=False)
    parent.merge_samples(worker.to_dict())
    assert "jobs" not in parent


def test_histogram_streaming_stddev():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(100,))
    for value in (2, 4, 4, 4, 5, 5, 7, 9):
        hist.observe(value)
    # classic textbook set: population stddev exactly 2
    assert hist.stddev == pytest.approx(2.0)
    assert hist.sum_sq == pytest.approx(sum(v * v for v in (2, 4, 4, 4, 5, 5, 7, 9)))
    data = hist.to_dict()
    assert data["stddev"] == pytest.approx(2.0)
    assert data["sum_sq"] == pytest.approx(hist.sum_sq)


def test_histogram_stddev_degenerate_cases():
    registry = MetricsRegistry()
    empty = registry.histogram("empty_h", buckets=(1,))
    assert empty.stddev == 0.0
    constant = registry.histogram("const_h", buckets=(1e9,))
    for _ in range(5):
        constant.observe(2.0 ** 27)  # exact in binary: variance is 0
    assert constant.stddev == 0.0
    # float cancellation pushing the variance slightly negative must
    # clamp to 0, not raise or return NaN
    clamped = registry.histogram("clamp_h", buckets=(10,))
    clamped.observe(3.0)
    clamped.observe(3.0)
    clamped.sum_sq -= 1e-9
    assert clamped.stddev == 0.0


def test_histogram_quantile_interpolates_within_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("q", buckets=(10, 20, 30))
    for value in range(1, 31):  # 1..30 uniform: 10 per bucket
        hist.observe(value)
    assert hist.quantile(0.0) == 1  # exact min
    assert hist.quantile(1.0) == 30  # clamped to observed max
    # median target rank 15 lands mid second bucket (10, 20]
    assert 10 <= hist.quantile(0.5) <= 20
    assert hist.quantile(0.5) == pytest.approx(15.0)
    assert hist.quantile(0.25) <= hist.quantile(0.75)


def test_histogram_quantile_bounds_and_overflow():
    registry = MetricsRegistry()
    hist = registry.histogram("q", buckets=(1, 10))
    with pytest.raises(ValueError):
        hist.quantile(-0.1)
    with pytest.raises(ValueError):
        hist.quantile(1.1)
    assert hist.quantile(0.5) == 0.0  # empty histogram
    hist.observe(5)
    hist.observe(5000)  # +Inf overflow
    # a rank inside the overflow bucket reports the observed max, the
    # only finite bound available
    assert hist.quantile(0.99) == 5000
    # estimates never leave [min, max]
    assert hist.quantile(0.25) >= hist.min


def test_histogram_empty_quantiles_and_moments():
    registry = MetricsRegistry()
    hist = registry.histogram("empty_q", buckets=(10, 100))
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.stddev == 0.0
    for q in (0.0, 0.5, 0.9, 1.0):
        assert hist.quantile(q) == 0.0
    assert hist.min is None and hist.max is None


def test_histogram_single_sample():
    """With one observation every quantile is that observation, the
    mean equals it, and the spread is zero."""
    registry = MetricsRegistry()
    hist = registry.histogram("single", buckets=(10, 100, 1000))
    hist.observe(42)
    assert hist.count == 1
    assert hist.mean == 42.0
    assert hist.stddev == 0.0
    assert hist.min == hist.max == 42
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert hist.quantile(q) == 42.0


def test_histogram_all_samples_in_one_bucket():
    """Identical samples collapse one bucket; min/max clamping must pin
    every quantile to the single observed value, not the bucket span."""
    registry = MetricsRegistry()
    hist = registry.histogram("mono", buckets=(10, 100, 1000))
    for _ in range(50):
        hist.observe(55)  # all land in the (10, 100] bucket
    assert hist.counts[1] == 50
    assert sum(hist.counts) == 50
    assert hist.stddev == 0.0
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert hist.quantile(q) == 55.0


def test_merge_samples_folds_sum_sq():
    worker_a = MetricsRegistry(enabled=True)
    worker_a.histogram("lat", buckets=(10,)).observe(3)
    worker_b = MetricsRegistry(enabled=True)
    worker_b.histogram("lat", buckets=(10,)).observe(4)
    parent = MetricsRegistry(enabled=True)
    parent.merge_samples(worker_a.to_dict())
    parent.merge_samples(worker_b.to_dict())
    hist = parent.histogram("lat", buckets=(10,))
    assert hist.sum_sq == pytest.approx(25.0)
    # mean 3.5, E[x^2] 12.5 -> stddev 0.5
    assert hist.stddev == pytest.approx(0.5)
