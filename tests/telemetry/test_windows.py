"""Rolling windows: bucket ring, rates, EWMA, quantiles, WindowSet."""

import pytest

from repro.telemetry import FlightRecorder, RollingWindow, WindowSet


def test_count_and_rate_over_partial_window():
    w = RollingWindow(window_seconds=10)
    for ts in (0.1, 0.5, 1.2, 2.9):
        w.observe(1.0, now=ts)
    assert w.count(now=3.0) == 4
    # only 3s of a 10s window have elapsed; rate uses the elapsed span
    assert w.rate(now=3.0) == pytest.approx(4 / 3.0)


def test_window_eviction_exact():
    w = RollingWindow(window_seconds=5)
    for ts in (0.5, 1.5, 2.5, 3.5, 4.5):
        w.observe(now=ts)
    assert w.count(now=4.9) == 5
    # at now=7.2 the live buckets are epochs 3..7 -> ts 3.5 and 4.5 remain
    assert w.count(now=7.2) == 2
    # far future: everything evicted
    assert w.count(now=100.0) == 0
    assert w.rate(now=100.0) == 0.0


def test_ring_slot_reuse_resets_stale_epochs():
    w = RollingWindow(window_seconds=3)  # 3 slots
    w.observe(5.0, now=0.5)  # epoch 0
    w.observe(7.0, now=3.5)  # epoch 3 reuses slot 0; old data dropped
    assert w.count(now=3.5) == 1
    assert w.total(now=3.5) == 7.0


def test_quantiles_over_retained_samples():
    w = RollingWindow(window_seconds=60)
    for i in range(1, 101):
        w.observe(float(i), now=0.5)
    assert w.quantile(0.5, now=1.0) == 50.0
    assert w.quantile(0.95, now=1.0) == 95.0
    assert w.quantile(0.99, now=1.0) == 99.0
    assert w.quantile(1.0, now=1.0) == 100.0
    with pytest.raises(ValueError):
        w.quantile(1.5)


def test_bucket_sample_cap_counts_capped():
    w = RollingWindow(window_seconds=10, max_bucket_samples=3)
    for i in range(10):
        w.observe(float(i), now=0.5)
    snap = w.snapshot(now=1.0)
    assert snap["count"] == 10
    assert snap["capped_samples"] == 7
    # count/sum/mean stay exact even though samples were capped
    assert snap["sum"] == sum(range(10))


def test_ewma_weights_recent_buckets():
    w = RollingWindow(window_seconds=4, alpha=0.5)
    # old burst, then quiet
    for _ in range(8):
        w.observe(now=0.5)
    assert w.ewma_rate(now=0.9) == pytest.approx(8.0)
    # three empty buckets later the EWMA has decayed toward zero
    assert w.ewma_rate(now=3.9) == pytest.approx(8.0 * 0.5 ** 3)
    # and is far below the plain window rate's average
    assert w.ewma_rate(now=3.9) < w.rate(now=3.9) * 4


def test_injectable_clock_is_used_when_now_omitted():
    clock = lambda: 2.5  # noqa: E731
    w = RollingWindow(window_seconds=10, clock=clock)
    w.observe(3.0)
    assert w.count() == 1
    assert w.total() == 3.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RollingWindow(window_seconds=0)
    with pytest.raises(ValueError):
        RollingWindow(alpha=0.0)


# ----------------------------------------------------------------------
# WindowSet
# ----------------------------------------------------------------------


def _event(kind, ts, **fields):
    return {"type": "event", "seq": 0, "ts": ts, "kind": kind, **fields}


def test_windowset_feeds_rates_and_value_fields():
    ws = WindowSet(window_seconds=10)
    ws.feed_event(_event("protect", 0.5, seconds=0.25))
    ws.feed_event(_event("protect", 1.5, seconds=0.75))
    ws.feed_event(_event("attack", 2.0, detected=True))
    snap = ws.snapshot(now=2.0)
    assert snap["protect"]["count"] == 2
    assert snap["attack"]["count"] == 1
    assert snap["protect.seconds"]["sum"] == pytest.approx(1.0)
    # booleans are not numeric values
    assert "attack.detected" not in snap


def test_windowset_subscription_sees_recorder_events_live():
    recorder = FlightRecorder(capacity=64)
    ws = WindowSet(window_seconds=30).subscribe_to(recorder)
    recorder.record("protect", program="wget", seconds=0.1)
    recorder.record("attack", detected=False)
    snap = ws.snapshot()
    assert snap["protect"]["count"] == 1
    assert snap["attack"]["count"] == 1
    ws.close()
    recorder.record("protect", program="gzip")
    assert ws.snapshot()["protect"]["count"] == 1  # unsubscribed


def test_windowset_ignores_non_event_records():
    ws = WindowSet()
    ws.feed_event({"type": "journal_summary", "recorded": 10})
    assert ws.snapshot() == {}
