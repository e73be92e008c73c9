"""Structured tracing: nesting, attributes, export, no-op mode."""

import json

from repro.telemetry import Tracer
from repro.telemetry.tracing import NULL_SPAN


def test_nested_spans_link_parents():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner"):
                pass
        with tracer.span("sibling"):
            pass

    names = [s.name for s in tracer.spans]
    # children finish before parents
    assert names == ["inner", "middle", "sibling", "outer"]
    outer_span = tracer.find("outer")[0]
    middle_span = tracer.find("middle")[0]
    inner_span = tracer.find("inner")[0]
    sibling_span = tracer.find("sibling")[0]
    assert outer_span.parent_id is None
    assert middle_span.parent_id == outer_span.span_id
    assert inner_span.parent_id == middle_span.span_id
    assert sibling_span.parent_id == outer_span.span_id
    assert {s.span_id for s in tracer.children_of(outer_span.span_id)} == {
        middle_span.span_id,
        sibling_span.span_id,
    }


def test_span_attributes_and_duration():
    tracer = Tracer()
    with tracer.span("work", program="wget") as span:
        span.set_attribute("words", 91)
    finished = tracer.find("work")[0]
    assert finished.attributes == {"program": "wget", "words": 91}
    assert finished.finished
    assert finished.duration >= 0.0
    assert finished.status == "ok"


def test_span_error_status_on_exception():
    tracer = Tracer()
    try:
        with tracer.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer.find("failing")[0].status == "error"
    # stack unwound: a new span is a root again
    with tracer.span("after"):
        pass
    assert tracer.find("after")[0].parent_id is None


def test_disabled_tracer_returns_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("ignored", key="value")
    assert span is NULL_SPAN
    with span as s:
        s.set_attribute("k", "v")  # no-op, must not raise
    assert tracer.spans == []
    assert tracer.current() is None


def test_jsonl_export(tmp_path):
    tracer = Tracer()
    with tracer.span("parent", x=1):
        with tracer.span("child"):
            pass
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(events) == 2
    by_name = {e["name"]: e for e in events}
    assert by_name["child"]["parent_id"] == by_name["parent"]["span_id"]
    assert by_name["parent"]["attributes"] == {"x": 1}
    assert all(e["type"] == "span" for e in events)
    assert all(e["duration_s"] >= 0 for e in events)


def test_reset():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    tracer.reset()
    assert tracer.spans == []
    with tracer.span("b"):
        pass
    assert tracer.spans[0].span_id == 1


def test_leaked_inner_span_is_closed_when_outer_exits():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        inner = tracer.span("inner")  # opened, never exited
        inner.__enter__()
    # the outer exit closed the leaked inner span first
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert inner.finished and outer.finished
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert tracer.current() is None
    # the stack is clean: the next span is a root
    with tracer.span("after") as after:
        pass
    assert after.parent_id is None
