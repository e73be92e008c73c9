"""`repro top`: journal tailing and dashboard rendering."""

import io
import json

from repro.telemetry.top import JournalTail, TopDashboard, run_top


def _event(kind, ts, **fields):
    return {"type": "event", "seq": 0, "ts": ts, "kind": kind, **fields}


def _write_lines(path, records, partial=None):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
        if partial is not None:
            fh.write(partial)


# ----------------------------------------------------------------------
# JournalTail
# ----------------------------------------------------------------------


def test_tail_reads_incrementally(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    tail = JournalTail(path)
    assert tail.poll() == []  # missing file is fine
    _write_lines(path, [_event("protect", 0.1)])
    assert [r["kind"] for r in tail.poll()] == ["protect"]
    assert tail.poll() == []
    with open(path, "a") as fh:
        fh.write(json.dumps(_event("attack", 0.2)) + "\n")
    assert [r["kind"] for r in tail.poll()] == ["attack"]


def test_tail_holds_partial_trailing_line(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    full = json.dumps(_event("attack", 0.2))
    _write_lines(path, [_event("protect", 0.1)], partial=full[:10])
    tail = JournalTail(path)
    assert [r["kind"] for r in tail.poll()] == ["protect"]
    with open(path, "a") as fh:
        fh.write(full[10:] + "\n")
    assert [r["kind"] for r in tail.poll()] == ["attack"]


def test_tail_restarts_after_truncation(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    _write_lines(path, [_event("protect", 0.1), _event("protect", 0.2)])
    tail = JournalTail(path)
    assert len(tail.poll()) == 2
    _write_lines(path, [_event("attack", 0.3)])  # rewritten, smaller
    assert [r["kind"] for r in tail.poll()] == ["attack"]


# ----------------------------------------------------------------------
# TopDashboard
# ----------------------------------------------------------------------


def test_dashboard_renders_throughput_and_engine_mix():
    dash = TopDashboard(window_seconds=10)
    for i in range(4):
        dash.feed(_event("protect", 0.2 + i, seconds=0.5))
    dash.feed(_event("block_compile", 1.0, start=0x1000))
    dash.feed(_event("block_compile", 1.1, start=0x1000))
    frame = dash.render()
    assert "protect" in frame and "4" in frame
    assert "engine mix" in frame
    assert "block_compile" in frame
    assert "p50" in frame  # seconds value window rendered
    assert "hot blocks" in frame and "0x1000 x2" in frame


def test_dashboard_cache_hit_rate_from_pipeline_tasks():
    dash = TopDashboard()
    dash.feed(_event("pipeline.task", 0.1, program="wget", cache_hit=True))
    dash.feed(_event("pipeline.task", 0.2, program="gzip", cache_hit=False))
    frame = dash.render()
    assert "pipeline cache" in frame
    assert "50.0%" in frame


def test_dashboard_context_lanes():
    dash = TopDashboard()
    dash.feed(_event("protect", 0.1, ctx={"request": "r1"}))
    dash.feed(_event("protect", 0.2, ctx={"request": "r2"}))
    frame = dash.render()
    assert "contexts" in frame
    assert "{request=r1}" in frame and "{request=r2}" in frame


def test_dashboard_reports_finished_run():
    dash = TopDashboard()
    dash.feed(_event("protect", 0.1))
    dash.feed({"type": "journal_summary", "recorded": 1, "dropped": 5})
    assert dash.finished is not None
    assert "run finished" in dash.render()
    assert "5 events dropped" in dash.render()


def test_dashboard_empty_waits():
    assert "waiting for events" in TopDashboard().render()


# ----------------------------------------------------------------------
# run_top
# ----------------------------------------------------------------------


def test_run_top_once_renders_current_content(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    _write_lines(
        path,
        [
            _event("protect", 0.1, seconds=0.2),
            _event("attack", 0.3, detected=True),
            {"type": "journal_summary", "recorded": 2, "dropped": 0},
        ],
    )
    out = io.StringIO()
    dash = run_top(path, once=True, out=out)
    text = out.getvalue()
    assert dash.events_seen == 2
    assert "protect" in text and "attack" in text
    assert "\x1b" not in text  # --once never clears the screen


def test_run_top_loop_stops_when_run_finishes(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    _write_lines(
        path,
        [
            _event("protect", 0.1),
            {"type": "journal_summary", "recorded": 1, "dropped": 0},
        ],
    )
    out = io.StringIO()
    dash = run_top(path, interval=0.01, duration=5.0, out=out, clear=False)
    assert dash.finished is not None
    assert "run finished" in out.getvalue()
