"""Telemetry scopes: contexts, label stamping, capture/adopt, flushes."""

import sys
import threading

import pytest

from repro.telemetry import (
    TelemetryContext,
    adopt,
    capture,
    current_context,
    current_labels,
    get_metrics,
    get_recorder,
    get_tracer,
    telemetry_context,
    telemetry_session,
)


def test_context_requires_at_least_one_label():
    with pytest.raises(ValueError):
        TelemetryContext({})


def test_accessors_return_context_children_inside_scope():
    with telemetry_session() as (global_metrics, global_tracer):
        assert get_metrics() is global_metrics
        with telemetry_context(request="r1") as ctx:
            assert current_context() is ctx
            assert get_metrics() is ctx.metrics
            assert get_tracer() is ctx.tracer
            assert current_labels() == {"request": "r1"}
        assert current_context() is None
        assert get_metrics() is global_metrics


def test_flush_merges_labeled_samples_into_global():
    with telemetry_session() as (global_metrics, global_tracer):
        with telemetry_context(request="r1"):
            get_metrics().counter("protect.runs").inc(3)
            with get_tracer().span("work", program="wget"):
                pass
        samples = global_metrics.to_dict()
        assert samples['protect.runs{request="r1"}']["value"] == 3
        (span,) = global_tracer.spans
        assert span.name == "work"
        assert span.attributes["ctx.request"] == "r1"
        # span's own attributes survive the ctx.* stamping
        assert span.attributes["program"] == "wget"


def test_nested_contexts_merge_labels_inner_wins():
    with telemetry_session() as (global_metrics, _tracer):
        with telemetry_context(tenant="acme", request="outer"):
            with telemetry_context(request="inner"):
                assert current_labels() == {
                    "tenant": "acme",
                    "request": "inner",
                }
                get_metrics().counter("c").inc()
        assert 'c{request="inner",tenant="acme"}' in global_metrics.to_dict()


def test_flush_is_idempotent_per_batch():
    with telemetry_session() as (global_metrics, _tracer):
        ctx = telemetry_context(request="r1")
        with ctx:
            get_metrics().counter("c").inc(2)
        ctx.flush()  # second flush: child already drained
        assert global_metrics.family_total("c") == 2


def test_context_is_not_reentrant():
    ctx = telemetry_context(request="r1")
    with telemetry_session():
        with ctx:
            with pytest.raises(RuntimeError):
                ctx.__enter__()


def test_context_mirrors_disabled_state():
    # no session: process-wide telemetry is disabled
    with telemetry_context(request="r1"):
        counter = get_metrics().counter("c")
        counter.inc()  # null instrument, nothing recorded
    assert get_metrics().to_dict() == {}


def test_capture_runs_body_in_private_unlabeled_scope():
    with telemetry_session() as (global_metrics, _tracer):
        with telemetry_context(request="r1") as ctx:

            def body():
                # neither the context nor the process-wide objects
                assert current_context() is None
                assert current_labels() == {}
                assert get_metrics() is not ctx.metrics
                assert get_metrics() is not global_metrics
                get_metrics().counter("c").inc(2)
                return "done"

            result, payload = capture(body)
            assert current_context() is ctx
        assert result == "done"
        assert payload["metrics"]["c"]["value"] == 2
        assert payload["spans"] == [] and payload["events"] == []
        # nothing reached the parent: a payload counts only once adopted
        assert global_metrics.to_dict() == {}


def test_adopt_labels_payload_once_in_active_scope():
    def body():
        get_metrics().counter("c").inc(3)
        with get_tracer().span("work"):
            get_recorder().record("protect", program="wget")

    with telemetry_session(recorder=True) as (global_metrics, global_tracer):
        _result, payload = capture(body, tracing=True, recording=True)
        assert "ctx" not in payload["events"][0]
        with telemetry_context(request="r1"):
            with get_tracer().span("program") as program:
                adopt(payload, pid=7, parent_span=program)
        samples = global_metrics.to_dict()
        assert samples['c{request="r1"}']["value"] == 3
        assert global_metrics.family_total("c") == 3
        work = global_tracer.find("work")[0]
        assert work.parent_id == global_tracer.find("program")[0].span_id
        assert work.attributes == {"ctx.request": "r1", "worker_pid": 7}
        (event,) = get_recorder().to_events()
        assert event["pid"] == 7 and event["ctx"] == {"request": "r1"}


def test_recorder_stamps_active_scope_labels_live():
    with telemetry_session(recorder=True):
        recorder = get_recorder()
        seen = []
        recorder.subscribe(seen.append)
        try:
            with telemetry_context(request="r1", tenant="acme"):
                # one real recorder, no per-context view
                assert get_recorder() is recorder
                get_recorder().record("protect", program="wget")
                get_recorder().record("attack", ctx={"request": "own"})
        finally:
            recorder.unsubscribe(seen.append)
        # the event reached the global ring (and subscribers) while the
        # context was still open — labeled live, not at flush time
        event, own = seen
        assert event["kind"] == "protect"
        assert event["ctx"] == {"request": "r1", "tenant": "acme"}
        # the event's own ctx keys win over the scope's labels
        assert own["ctx"] == {"request": "own", "tenant": "acme"}
        retained, _ = recorder.to_events()
        assert retained["ctx"] == {"request": "r1", "tenant": "acme"}


def test_threaded_contexts_are_isolated_and_reconcile():
    """Satellite (c) core invariant: concurrent per-thread contexts keep
    their labels apart, and per-label sums equal the global exactly."""
    increments = {"r1": 7, "r2": 11, "r3": 13}
    with telemetry_session() as (global_metrics, _tracer):
        barrier = threading.Barrier(len(increments))
        errors = []

        def work(request, n):
            try:
                with telemetry_context(request=request):
                    barrier.wait(timeout=5)
                    for _ in range(n):
                        get_metrics().counter("work.items").inc()
                    assert current_labels() == {"request": request}
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=item)
            for item in increments.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        samples = global_metrics.to_dict()
        for request, n in increments.items():
            assert samples[f'work.items{{request="{request}"}}']["value"] == n
        assert global_metrics.family_total("work.items") == sum(
            increments.values()
        )


def test_concurrent_adopts_lose_no_update():
    """More threads than cores adopt payloads into one shared scope with
    a tiny switch interval: every increment and span lands exactly once,
    including into series that concurrent adopts create at the same time."""
    threads_n, rounds = 8, 300

    def body(i):
        get_metrics().counter(f"work.{i}").inc()
        with get_tracer().span("task"):
            pass

    with telemetry_session() as (global_metrics, global_tracer):
        errors = []
        barrier = threading.Barrier(threads_n)

        def work():
            try:
                barrier.wait(timeout=10)
                for i in range(rounds):
                    _result, payload = capture(lambda: body(i), tracing=True)
                    adopt(payload)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        samples = global_metrics.to_dict()
        lost = {i for i in range(rounds) if samples[f"work.{i}"]["value"] != threads_n}
        assert not lost
        total = threads_n * rounds
        assert len(global_tracer.find("task")) == total
        assert len({s.span_id for s in global_tracer.spans}) == total
