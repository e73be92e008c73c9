"""Chrome-trace export: per-worker process lanes via metadata events."""

from repro.telemetry import chrome_trace


def _span(name, span_id, start, dur, **attributes):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": None,
        "start_ts": start,
        "duration_s": dur,
        "status": "ok",
        "attributes": attributes,
    }


def test_worker_pid_spans_land_in_their_own_lane():
    payload = chrome_trace(
        [
            _span("protect_all", 1, 0.0, 2.0),
            _span("protect", 2, 0.1, 0.9, worker_pid=4242),
            _span("protect", 3, 0.2, 0.8, worker_pid=4243),
        ],
        pid=1000,
    )
    events = payload["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in spans if e["name"] == "protect"} == {4242, 4243}
    assert next(e for e in spans if e["name"] == "protect_all")["pid"] == 1000


def test_metadata_events_name_every_lane():
    payload = chrome_trace(
        [_span("protect", 2, 0.1, 0.9, worker_pid=4242)],
        pid=1000,
    )
    metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    names = {
        (e["pid"], e["name"]): e["args"]["name"] for e in metas
    }
    assert names[(1000, "process_name")] == "repro"
    assert names[(1000, "thread_name")] == "spans"
    assert names[(4242, "process_name")] == "repro worker 4242"
    assert names[(4242, "thread_name")] == "worker spans"
    # metadata precedes the span events so viewers name lanes up front
    first_span = next(
        i for i, e in enumerate(payload["traceEvents"]) if e["ph"] == "X"
    )
    assert all(
        e["ph"] != "M" for e in payload["traceEvents"][first_span:]
    )


def test_worker_meta_emitted_once_per_pid():
    payload = chrome_trace(
        [
            _span("a", 1, 0.0, 1.0, worker_pid=7),
            _span("b", 2, 1.0, 1.0, worker_pid=7),
        ],
        pid=1,
    )
    metas = [
        e
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["pid"] == 7 and e["name"] == "process_name"
    ]
    assert len(metas) == 1


def test_unparseable_worker_pid_falls_back_to_parent_lane():
    payload = chrome_trace(
        [_span("a", 1, 0.0, 1.0, worker_pid="not-a-pid")], pid=55
    )
    (span,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert span["pid"] == 55
