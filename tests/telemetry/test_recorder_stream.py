"""Flight-recorder features: capacity config, worker-event ingestion,
self-accounting."""

import pytest

from repro.telemetry import FlightRecorder, telemetry_context
from repro.telemetry.recorder import CAPACITY_ENV, default_capacity


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv(CAPACITY_ENV, "16")
    assert default_capacity() == 16
    rec = FlightRecorder()
    assert rec.capacity == 16
    # explicit argument wins over the environment
    assert FlightRecorder(capacity=4).capacity == 4
    monkeypatch.setenv(CAPACITY_ENV, "0")
    with pytest.raises(ValueError):
        FlightRecorder()
    monkeypatch.delenv(CAPACITY_ENV)
    assert FlightRecorder().capacity == FlightRecorder.DEFAULT_CAPACITY


def test_ingest_adopts_worker_events():
    worker = FlightRecorder(capacity=8)
    worker.record("protect", program="wget", seconds=0.5)
    worker.record("block_compile", start=0x1000)
    parent = FlightRecorder(capacity=8)
    with telemetry_context(request="r1"):
        adopted = parent.ingest(worker.to_events(), pid=4242)
    assert adopted == 2
    events = parent.to_events()
    assert [e["kind"] for e in events] == ["protect", "block_compile"]
    # parent clock, new sequence numbers; worker ts preserved
    assert events[0]["seq"] == 1
    assert events[0]["worker_ts"] >= 0
    # every adopted event carries the worker's pid
    assert [e["pid"] for e in events] == [4242, 4242]
    assert events[0]["ctx"] == {"request": "r1"}
    assert events[0]["program"] == "wget"


def test_ingest_merges_labels_under_existing_ctx():
    worker = FlightRecorder(capacity=8)
    worker.record("attack", ctx={"engine": "trace"})
    parent = FlightRecorder(capacity=8)
    with telemetry_context(request="r1"):
        parent.ingest(worker.to_events())
    (event,) = parent.to_events()
    assert event["ctx"] == {"request": "r1", "engine": "trace"}


def test_ingest_skips_non_event_records_and_disabled():
    parent = FlightRecorder(capacity=8)
    assert parent.ingest([{"type": "journal_summary"}]) == 0
    parent.enabled = False
    assert parent.ingest([{"type": "event", "kind": "x", "seq": 1}]) == 0


def test_self_accounting_samples_record_cost():
    rec = FlightRecorder(capacity=1024)
    for i in range(600):  # crosses two 256-sample points
        rec.record("k", i=i)
    assert rec.self_seconds > 0.0
    assert rec.summary()["self_seconds"] == pytest.approx(
        rec.self_seconds, abs=1e-9
    )
    rec.clear()
    assert rec.self_seconds == 0.0
