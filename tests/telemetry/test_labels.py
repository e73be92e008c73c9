"""Labeled metric families: series keys, cardinality guard, export."""

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    TelemetryContext,
    get_metrics,
    prometheus_text,
    telemetry_session,
)
from repro.telemetry.metrics import (
    CARDINALITY_OVERFLOW_COUNTER,
    DEFAULT_MAX_SERIES,
    format_series,
)


def test_labeled_series_are_independent_instruments():
    registry = MetricsRegistry()
    registry.counter("protect.runs").inc(1)
    registry.counter("protect.runs", labels={"request": "r1"}).inc(2)
    registry.counter("protect.runs", labels={"request": "r2"}).inc(3)
    samples = registry.to_dict()
    assert samples["protect.runs"]["value"] == 1
    assert samples['protect.runs{request="r1"}']["value"] == 2
    assert samples['protect.runs{request="r2"}']["value"] == 3
    # same labels -> same instrument
    registry.counter("protect.runs", labels={"request": "r1"}).inc()
    assert registry.get("protect.runs", {"request": "r1"}).value == 3
    assert registry.family_total("protect.runs") == 1 + 3 + 3


def test_series_key_renders_sorted_labels():
    assert format_series("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
    registry = MetricsRegistry()
    registry.gauge("g", labels={"z": "9", "a": "0"}).set(1.0)
    assert list(registry.to_dict()) == ['g{a="0",z="9"}']


def test_sample_name_field_stays_bare():
    registry = MetricsRegistry()
    registry.counter("c", labels={"k": "v"}).inc()
    (key, sample), = registry.to_dict().items()
    assert key == 'c{k="v"}'
    assert sample["name"] == "c"
    assert sample["labels"] == {"k": "v"}


def test_base_labels_stamp_every_instrument():
    registry = MetricsRegistry(base_labels={"request": "r7"})
    registry.counter("protect.runs").inc()
    registry.histogram("lat", buckets=(1.0,), labels={"rule": "x"}).observe(0.5)
    keys = set(registry.to_dict())
    assert 'protect.runs{request="r7"}' in keys
    assert 'lat{request="r7",rule="x"}' in keys


def test_le_label_name_is_reserved():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c", labels={"le": "1"})


def _open_label_sets(registry, count, name="hot"):
    for i in range(count):
        registry.counter(name, labels={"addr": f"0x{i:x}"}).inc()


def test_cardinality_guard_collapses_runaway_series():
    registry = MetricsRegistry()
    _open_label_sets(registry, DEFAULT_MAX_SERIES + 1)
    family = registry.series("hot")
    # DEFAULT_MAX_SERIES real series + the shared overflow series
    assert len(family) == DEFAULT_MAX_SERIES + 1
    overflow = registry.get("hot", {"overflow": "true"})
    assert overflow is not None and overflow.value == 1
    guard = registry.get(CARDINALITY_OVERFLOW_COUNTER)
    assert guard is not None and guard.value == 1
    # totals survive the collapse
    assert registry.family_total("hot") == DEFAULT_MAX_SERIES + 1


def test_unlabeled_series_is_always_admitted():
    registry = MetricsRegistry()
    _open_label_sets(registry, DEFAULT_MAX_SERIES + 1, name="c")
    # the unlabeled series is not subject to the labeled-series cap
    registry.counter("c").inc(5)
    assert registry.get("c").value == 5
    assert registry.get(CARDINALITY_OVERFLOW_COUNTER).value == 1


def test_max_series_default():
    registry = MetricsRegistry()
    _open_label_sets(registry, DEFAULT_MAX_SERIES)
    assert registry.get(CARDINALITY_OVERFLOW_COUNTER) is None
    registry.counter("hot", labels={"addr": "one more"}).inc()
    assert registry.get(CARDINALITY_OVERFLOW_COUNTER).value == 1


def test_merge_samples_preserves_labels_and_applies_extra():
    source = MetricsRegistry()
    source.counter("c", labels={"engine": "trace"}).inc(2)
    source.counter("c").inc(1)
    dest = MetricsRegistry()
    dest.merge_samples(source.to_dict(), extra_labels={"request": "r1"})
    samples = dest.to_dict()
    assert samples['c{engine="trace",request="r1"}']["value"] == 2
    assert samples['c{request="r1"}']["value"] == 1


def test_merge_samples_sample_labels_win_over_extra():
    source = MetricsRegistry()
    source.counter("c", labels={"request": "inner"}).inc(1)
    dest = MetricsRegistry()
    dest.merge_samples(source.to_dict(), extra_labels={"request": "outer"})
    assert 'c{request="inner"}' in dest.to_dict()


def test_contains_accepts_family_and_series_key():
    registry = MetricsRegistry()
    registry.counter("c", labels={"k": "v"}).inc()
    assert "c" in registry
    assert 'c{k="v"}' in registry
    assert 'c{k="other"}' not in registry
    assert "absent" not in registry


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------


def test_prometheus_renders_labels_with_one_type_line_per_family():
    registry = MetricsRegistry()
    registry.counter("protect.runs", labels={"request": "r1"}).inc(2)
    registry.counter("protect.runs", labels={"request": "r2"}).inc(3)
    registry.counter("protect.runs").inc(1)
    text = prometheus_text(registry)
    assert text.count("# TYPE protect_runs_total counter") == 1
    assert 'protect_runs_total{request="r1"} 2' in text
    assert 'protect_runs_total{request="r2"} 3' in text
    assert "protect_runs_total 1" in text.splitlines()


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter(
        "c", labels={"path": 'a\\b"c\nd'}
    ).inc()
    text = prometheus_text(registry)
    assert 'c_total{path="a\\\\b\\"c\\nd"} 1' in text


def test_prometheus_sanitizes_label_names():
    registry = MetricsRegistry()
    registry.counter("c", labels={"bad-name": "v", "0lead": "w"}).inc()
    text = prometheus_text(registry)
    assert 'bad_name="v"' in text
    assert '_0lead="w"' in text


def test_prometheus_labeled_histogram_bucket_series():
    registry = MetricsRegistry()
    registry.histogram(
        "lat", buckets=(1.0, 2.0), labels={"rule": "r"}
    ).observe(1.5)
    text = prometheus_text(registry)
    assert 'lat_bucket{rule="r",le="1.0"} 0' in text
    assert 'lat_bucket{rule="r",le="2.0"} 1' in text
    assert 'lat_bucket{rule="r",le="+Inf"} 1' in text
    assert 'lat_count{rule="r"} 1' in text
    assert text.count("# TYPE lat histogram") == 1


def test_prometheus_roundtrips_exported_samples_dict():
    registry = MetricsRegistry()
    registry.counter("c", labels={"k": "v"}).inc(4)
    assert prometheus_text(registry.to_dict()) == prometheus_text(registry)


def test_prometheus_puts_context_base_labels_first():
    """The live registry (what ``/metrics`` renders) orders a context's
    base labels before the sample's own; an exported JSON sorts them."""
    with telemetry_session(tracing=False) as (metrics, _tracer):
        with TelemetryContext({"request": "ci", "tenant": "smoke"}):
            get_metrics().counter(
                "emu.hot.block", labels={"addr": "0x1000"}
            ).inc(3)
    live = prometheus_text(metrics).splitlines()
    assert 'emu_hot_block_total{request="ci",tenant="smoke",addr="0x1000"} 3' \
        in live
    exported = prometheus_text(json.loads(metrics.to_json())).splitlines()
    assert 'emu_hot_block_total{addr="0x1000",request="ci",tenant="smoke"} 3' \
        in exported
