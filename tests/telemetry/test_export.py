"""Exporters: Chrome trace JSON, Prometheus text, artifact sniffing,
the ``repro stats`` renderer, and cross-tracer span ingestion."""

import json
import re

import pytest

from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    load_artifact,
    prometheus_text,
    render_stats,
    write_chrome_trace,
)


def _traced():
    tracer = Tracer()
    with tracer.span("protect", program="wget"):
        with tracer.span("find_gadgets"):
            pass
    return tracer


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------


def test_chrome_trace_emits_valid_complete_events():
    payload = chrome_trace(_traced().to_events(), pid=42)
    events = payload["traceEvents"]
    # one process_name metadata event, then one X event per span
    assert events[0]["ph"] == "M" and events[0]["name"] == "process_name"
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"protect", "find_gadgets"}
    for event in events:
        assert "ph" in event and "pid" in event and "tid" in event
        assert event["pid"] == 42
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert "span_id" in event["args"]
    by_name = {e["name"]: e for e in complete}
    assert (
        by_name["find_gadgets"]["args"]["parent_id"]
        == by_name["protect"]["args"]["span_id"]
    )
    assert by_name["protect"]["args"]["program"] == "wget"
    # ok spans omit status noise from args
    assert "status" not in by_name["protect"]["args"]


def test_chrome_trace_flags_error_status():
    tracer = Tracer()
    try:
        with tracer.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    payload = chrome_trace(tracer.to_events())
    event = [e for e in payload["traceEvents"] if e["ph"] == "X"][0]
    assert event["args"]["status"] == "error"


def test_chrome_trace_carries_every_span_field():
    """The Chrome trace is the one span export: every field of
    :meth:`Tracer.to_events` comes back from its complete events."""
    tracer = Tracer()
    with tracer.span("protect", program="wget"):
        with tracer.span("find_gadgets", sections=3):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("emit_chain"):
                raise RuntimeError("boom")
    worker = Tracer()
    with worker.span("pipeline.task", program="gzip"):
        with worker.span("protect"):
            pass
    tracer.ingest(
        worker.to_events(), parent_id=1, extra_attributes={"worker_pid": 4242}
    )
    spans = tracer.to_events()
    assert {s["status"] for s in spans} == {"ok", "error"}

    payload = chrome_trace(spans, pid=7)
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(spans) == 5
    for span, event in zip(spans, complete):
        args = dict(event["args"])
        assert event["name"] == span["name"]
        assert args.pop("span_id") == span["span_id"]
        assert args.pop("parent_id", None) == span["parent_id"]
        assert args.pop("status", "ok") == span["status"]
        assert args == span["attributes"]
        assert event["pid"] == span["attributes"].get("worker_pid", 7)
        # microsecond timestamps and durations
        assert abs(event["ts"] - span["start_ts"] * 1e6) < 1
        assert abs(event["dur"] - span["duration_s"] * 1e6) < 1


def test_write_chrome_trace_file_is_loadable(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(_traced(), str(path))
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def test_prometheus_text_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("emu.instructions").inc(1000)
    registry.gauge("pipeline.jobs").set(2.0)
    hist = registry.histogram("protect.chain_words", buckets=(1, 10))
    for v in (0.5, 5, 500):
        hist.observe(v)
    text = prometheus_text(registry)
    lines = text.splitlines()
    # counters get _total; dots are sanitized to underscores
    assert "# TYPE emu_instructions_total counter" in lines
    assert "emu_instructions_total 1000" in lines
    assert "pipeline_jobs 2.0" in lines
    # histogram buckets are cumulative, unlike the internal counts
    assert 'protect_chain_words_bucket{le="1.0"} 1' in lines
    assert 'protect_chain_words_bucket{le="10.0"} 2' in lines
    assert 'protect_chain_words_bucket{le="+Inf"} 3' in lines
    assert "protect_chain_words_count 3" in lines
    assert any(l.startswith("protect_chain_words_sum ") for l in lines)
    assert any(l.startswith("protect_chain_words_stddev ") for l in lines)


def test_prometheus_text_accepts_exported_samples_dict():
    registry = MetricsRegistry()
    registry.counter("a").inc(7)
    assert prometheus_text(registry.to_dict()) == prometheus_text(registry)


def test_prometheus_text_rejects_unknown_sample_type():
    with pytest.raises(ValueError):
        prometheus_text({"weird": {"type": "summary", "value": 1}})


# ----------------------------------------------------------------------
# Artifact sniffing
# ----------------------------------------------------------------------


def test_load_artifact_sniffs_all_four_kinds(tmp_path):
    registry = MetricsRegistry()
    registry.counter("emu.instructions").inc(5)
    metrics_path = tmp_path / "metrics.json"
    registry.write_json(str(metrics_path))

    chrome_path = tmp_path / "chrome.json"
    write_chrome_trace(_traced(), str(chrome_path))

    rec = FlightRecorder()
    rec.record("protect", program="wget")
    journal_path = tmp_path / "journal.jsonl"
    rec.write_jsonl(str(journal_path))

    coverage_path = tmp_path / "coverage.json"
    coverage_path.write_text(json.dumps({"type": "coverage", "program": "wget"}))

    assert load_artifact(str(metrics_path))[0] == "metrics"
    assert load_artifact(str(chrome_path))[0] == "chrome"
    kind, data = load_artifact(str(journal_path))
    assert kind == "journal"
    assert any(r.get("type") == "journal_summary" for r in data)
    assert load_artifact(str(coverage_path))[0] == "coverage"


def test_load_artifact_rejects_empty_and_garbage(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_artifact(str(empty))
    garbage = tmp_path / "odd.jsonl"
    garbage.write_text('{"type": "mystery"}\n')
    with pytest.raises(ValueError):
        load_artifact(str(garbage))
    # span JSONL is not an export: spans travel as a Chrome trace
    spans = tmp_path / "spans.jsonl"
    spans.write_text("".join(json.dumps(e) + "\n" for e in _traced().to_events()))
    with pytest.raises(ValueError):
        load_artifact(str(spans))


# ----------------------------------------------------------------------
# The stats renderer
# ----------------------------------------------------------------------


def _engine_samples():
    registry = MetricsRegistry()
    registry.counter("emu.blocks.compiled").inc(10)
    registry.counter("emu.blocks.hits").inc(990)
    registry.counter("emu.blocks.epoch_hits").inc(900)
    registry.counter("emu.blocks.page_revalidations").inc(90)
    registry.counter("emu.blocks.invalidated").inc(3)
    registry.counter("emu.blocks.write_aborts").inc(1)
    registry.counter("emu.instructions").inc(12345)
    registry.counter("emu.cycles").inc(23456)
    for mnemonic, count in (("mov", 500), ("add", 300), ("ret", 200)):
        registry.counter("emu.hot.mnemonic", labels={"mnemonic": mnemonic}).inc(count)
    registry.counter("emu.hot.block", labels={"addr": "0x00001000"}).inc(42)
    buckets = (10, 100, 1000, 10000, 100000)
    for cycles in (5, 40, 70, 80, 300, 2000, 50000):
        registry.histogram(
            "attacks.cycles_to_detection", buckets=buckets
        ).observe(cycles)
    for request in ("r1", "r2"):
        registry.histogram(
            "attacks.cycles_to_detection", buckets=buckets,
            labels={"attack": "wurster", "rule": "immediate_mod",
                    "request": request},
        ).observe(40)
    return registry.to_dict()


def test_render_stats_metrics_dashboard():
    out = render_stats("metrics", _engine_samples())
    assert "engine block cache" in out
    assert "hit rate 99.00%" in out  # 990 / (990 + 10)
    assert "tier-1 epoch fast-path" in out and "900" in out
    assert "tier-2 page revalidated" in out
    assert "tier-2 page-version" in out
    assert "tier-3 in-block store" in out
    assert "hottest mnemonics (top 10)" in out
    # ranked by count, shares against the sampled total
    assert out.index("mov") < out.index("add") < out.index("ret")
    assert "50.00%" in out
    assert "hottest blocks (executions)" in out
    assert "run totals" in out and "12,345" in out
    # bucket-interpolated quantiles: p50 inside (10, 100], p90 inside
    # (10000, 100000]
    assert (
        "  cycles_to_detection    n=7     mean=       7,499"
        " p50=          85 p90=      37,000 max=      50,000"
    ) in out.splitlines()
    # one row per series, even when two share an attack x rule cell
    assert out.count("    wurster.immediate_mod        n=1") == 2


def test_render_stats_metrics_without_engine_samples():
    samples = {"misc": {"type": "counter", "name": "misc", "value": 1}}
    assert "no engine/chain samples" in render_stats("metrics", samples)


def test_render_stats_trace_and_journal_and_chrome(tmp_path):
    out = render_stats("chrome", chrome_trace(_traced().to_events()))
    assert "chrome trace: 2 complete events" in out
    assert "protect" in out and "find_gadgets" in out

    rec = FlightRecorder()
    for _ in range(3):
        rec.record("chain_dispatch", gadget=0x1000)
    rec.record("block_compile", start=0x2000)
    journal_path = tmp_path / "j.jsonl"
    rec.write_jsonl(str(journal_path))
    out = render_stats("journal", load_artifact(str(journal_path))[1])
    assert "journal: 4 events retained" in out
    assert "chain_dispatch" in out and "block_compile" in out

    # spans render only from a Chrome trace
    for kind in ("trace", "mystery"):
        with pytest.raises(ValueError):
            render_stats(kind, {})


def _event(kind, ts, **fields):
    return {"type": "event", "seq": 0, "ts": ts, "kind": kind, **fields}


def _serve_event(ts, role="leader", tenant="acme", seconds=0.05):
    return _event(
        "serve.request", ts, route="/protect", program="gzip",
        seconds=seconds, status=200, singleflight=role, ctx={"tenant": tenant},
    )


def _reject_event(ts, reason):
    return _event("serve.reject", ts, route="/protect", reason=reason)


_ROLE_MIX = (
    [_serve_event(0.1, role="leader")] * 2
    + [_serve_event(0.2, role="follower")] * 5
    + [_serve_event(0.3, role="cache-hit")] * 3
)


@pytest.mark.parametrize(
    "events, present, absent",
    [
        pytest.param(
            _ROLE_MIX,
            # 8 of 10 coalesced: everything that was not a leader
            [r"^serve +10 req +coalesced 80\.00% +leader 2 +cache-hit 3"
             r" +follower 5$"],
            [r"rejected"],
            id="role-mix-and-coalesce",
        ),
        pytest.param(
            [_serve_event(0.1), _reject_event(0.2, "queue"),
             _reject_event(0.3, "queue"), _reject_event(0.4, "quota")],
            [r"^  rejected +3 +\(queue 2, quota 1\)$"],
            [],
            id="rejections-by-reason",
        ),
        pytest.param(
            [_reject_event(0.1, "draining")],
            [r"^serve +0 req", r"^  rejected +1 +\(draining 1\)$"],
            [],
            id="rejections-without-successes",
        ),
        pytest.param(
            [_serve_event(0.1 * i, tenant="acme") for i in range(8)]
            + [_serve_event(0.1 * i, tenant="beta") for i in range(3)],
            [r"^  tenant acme +8 req$", r"^  tenant beta +3 req$"],
            [],
            id="tenants",
        ),
        pytest.param(
            [_event("pipeline.task", 0.1, program="wget", cache_hit=True),
             _event("pipeline.task", 0.2, program="gzip", cache_hit=False)],
            [r"^pipeline cache +hit 50\.00% +\(1/2 tasks\)$"],
            [r"^serve "],
            id="pipeline-cache-hit-rate",
        ),
        pytest.param(
            [_event("protect", 0.1)],
            [r"^  protect +1$"],
            [r"serve"],
            id="no-serve-lane-without-serve-events",
        ),
        pytest.param(
            [_event("protect", 0.1, ctx={"request": "r1"}),
             _event("protect", 0.2, ctx={"request": "r2"}),
             _event("protect", 0.3)],
            [r"^contexts$", r"^  \{request=r1\}  protect 1$",
             r"^  \{request=r2\}  protect 1$"],
            [r"^serve "],
            id="context-lanes",
        ),
        pytest.param(
            [_serve_event(0.1 * i, seconds=0.1 * i) for i in range(1, 6)],
            [r"^  serve\.request +5 +total +1\.5000s +p50 +300\.00ms"
             r" +p95 +500\.00ms$"],
            [],
            id="seconds-total-and-percentiles",
        ),
        pytest.param(
            [_event("protect", 0.1),
             {"type": "journal_summary", "recorded": 6, "dropped": 5}],
            [r"^journal: 1 events retained \(6 recorded, 5 dropped\)$"],
            [],
            id="summary-trailer",
        ),
    ],
)
def test_render_stats_journal_lanes(events, present, absent):
    out = render_stats("journal", events)
    for pattern in present:
        assert re.search(pattern, out, re.M), (pattern, out)
    for pattern in absent:
        assert not re.search(pattern, out, re.M), (pattern, out)


# ----------------------------------------------------------------------
# Tracer.ingest: adopting worker spans
# ----------------------------------------------------------------------


def test_ingest_remaps_ids_and_reparents_roots():
    worker = Tracer()
    with worker.span("protect", program="gzip"):
        with worker.span("find_gadgets"):
            pass
    parent = Tracer()
    with parent.span("pipeline.program") as program_span:
        adopted = parent.ingest(worker.to_events(), parent_id=program_span.span_id)

    assert [s.name for s in adopted] == ["find_gadgets", "protect"]
    by_name = {s.name: s for s in parent.spans}
    # the worker's root hangs off the parent's span...
    assert by_name["protect"].parent_id == by_name["pipeline.program"].span_id
    # ...and the worker-internal nesting is preserved under fresh ids
    assert by_name["find_gadgets"].parent_id == by_name["protect"].span_id
    ids = [s.span_id for s in parent.spans]
    assert len(ids) == len(set(ids)), "ingest must not collide span ids"
    assert by_name["protect"].attributes == {"program": "gzip"}


def test_ingest_preserves_timing_and_status():
    worker = Tracer()
    try:
        with worker.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    exported = worker.to_events()
    parent = Tracer()
    (span,) = parent.ingest(exported)
    assert span.status == "error"
    assert span.parent_id is None  # no parent_id given: stays a root
    assert span.start_wall == exported[0]["start_ts"]
    assert span.duration == pytest.approx(exported[0]["duration_s"])


def test_ingest_on_disabled_tracer_is_noop():
    worker = Tracer()
    with worker.span("work"):
        pass
    disabled = Tracer(enabled=False)
    assert disabled.ingest(worker.to_events()) == []
    assert disabled.spans == []


def test_ingest_skips_non_span_records():
    parent = Tracer()
    adopted = parent.ingest([{"type": "event", "kind": "protect"}])
    assert adopted == []
