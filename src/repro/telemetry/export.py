"""Exporters: Chrome trace-event JSON, Prometheus text, stats rendering.

Turns the in-memory telemetry objects (or their previously exported
artifacts) into the formats external tools speak:

* :func:`chrome_trace` — the Chrome trace-event format (``traceEvents``
  with ``ph``/``ts``/``dur``/``pid``/``tid``), loadable in Perfetto or
  ``chrome://tracing``, built from the span tracer;
* :func:`prometheus_text` — the Prometheus text exposition format from
  a metrics registry (counters as ``_total``, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``/``_stddev``);
* :func:`load_artifact` / :func:`render_stats` — sniff any exported
  artifact (metrics JSON, Chrome trace, journal JSONL, coverage JSON)
  and render the human dashboard behind ``repro stats``.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import Histogram, MetricsRegistry, _ensure_parent_dir
from .tracing import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "load_artifact",
    "render_stats",
    "ARTIFACT_KINDS",
    "nearest_rank",
]

#: Artifact kinds :func:`load_artifact` can sniff — the CLI names these
#: when a path holds none of them.
ARTIFACT_KINDS = ("metrics", "journal", "chrome", "coverage")


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ascending ``values`` (0.0 if empty)."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------


def chrome_trace(spans: Iterable[dict], pid: Optional[int] = None) -> dict:
    """Trace-event JSON from span dicts (:meth:`Tracer.to_events`).

    Every span becomes one complete (``ph: "X"``) event with
    microsecond wall-clock ``ts`` and ``dur``, so nesting reconstructs
    visually from timing alone; span/parent ids ride along in ``args``.

    Spans carrying a ``worker_pid`` attribute (stamped by the parallel
    pipeline when it hoists pool-worker spans into the parent trace)
    are laned under that pid, with ``process_name``/``thread_name``
    metadata events per worker — in Perfetto each pool worker renders
    as its own named process track instead of piling onto the parent's.
    """
    pid = os.getpid() if pid is None else pid
    span_events: List[dict] = []
    worker_pids: List[int] = []
    for record in spans:
        args = dict(record.get("attributes") or {})
        args["span_id"] = record.get("span_id")
        if record.get("parent_id") is not None:
            args["parent_id"] = record["parent_id"]
        if record.get("status") not in (None, "ok"):
            args["status"] = record["status"]
        event_pid = pid
        worker_pid = args.get("worker_pid")
        if worker_pid is not None:
            try:
                event_pid = int(worker_pid)
            except (TypeError, ValueError):
                event_pid = pid
            if event_pid != pid and event_pid not in worker_pids:
                worker_pids.append(event_pid)
        span_events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round(record.get("start_ts", 0.0) * 1e6, 3),
                "dur": round(record.get("duration_s", 0.0) * 1e6, 3),
                "pid": event_pid,
                "tid": 1,
                "args": args,
            }
        )
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": "spans"},
        },
    ]
    for worker_pid in worker_pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": worker_pid,
                "tid": 0,
                "args": {"name": f"repro worker {worker_pid}"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": worker_pid,
                "tid": 1,
                "args": {"name": "worker spans"},
            }
        )
    events.extend(span_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    payload = chrome_trace(tracer.to_events())
    _ensure_parent_dir(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_label_name(name: str) -> str:
    sanitized = _PROM_LABEL_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_label_value(value) -> str:
    # Escape order matters: backslashes first, else the escapes we add
    # for quotes/newlines would themselves get doubled.
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str], extra: Optional[List[Tuple[str, str]]] = None) -> str:
    """Render a ``{k="v",...}`` label block (empty string when bare)."""
    pairs = [
        (_prom_label_name(k), _prom_label_value(v)) for k, v in labels.items()
    ]
    if extra:
        pairs.extend(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text(registry) -> str:
    """Prometheus text format from a registry or an exported samples dict.

    Labeled series render with a ``{key="value"}`` block — label values
    escaped per the exposition format (backslash, double-quote,
    newline) — and every family gets exactly one ``# TYPE`` line
    regardless of how many labeled series it holds.  Histogram buckets
    are converted from the registry's per-bucket counts to Prometheus's
    cumulative ``le`` series; ``sum_sq`` (when present) is surfaced as
    a ``_stddev`` gauge so dashboards get spread without a second
    scrape.
    """
    samples = (
        registry.to_dict() if isinstance(registry, MetricsRegistry) else registry
    )
    # Group series into families so one # TYPE line covers them all.
    families: Dict[str, List[Tuple[Dict[str, str], dict]]] = {}
    kinds: Dict[str, str] = {}
    for key in sorted(samples):
        sample = samples[key]
        kind = sample.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"cannot export sample of type {kind!r}")
        base = _prom_name(sample["name"])
        if kinds.setdefault(base, kind) != kind:
            raise ValueError(
                f"family {base!r} mixes sample types "
                f"({kinds[base]!r} and {kind!r})"
            )
        families.setdefault(base, []).append((sample.get("labels", {}), sample))
    lines: List[str] = []
    for base in sorted(families):
        kind = kinds[base]
        series = families[base]
        if kind == "counter":
            lines.append(f"# TYPE {base}_total counter")
            for labels, sample in series:
                lines.append(
                    f"{base}_total{_prom_labels(labels)}"
                    f" {_prom_value(sample['value'])}"
                )
        elif kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            for labels, sample in series:
                lines.append(
                    f"{base}{_prom_labels(labels)}"
                    f" {_prom_value(sample['value'])}"
                )
        else:
            lines.append(f"# TYPE {base} histogram")
            stddev_lines: List[str] = []
            for labels, sample in series:
                cumulative = 0
                for bucket in sample["buckets"]:
                    cumulative += bucket["count"]
                    le = bucket["le"]
                    le_text = le if le == "+Inf" else _prom_value(le)
                    lines.append(
                        f"{base}_bucket"
                        f"{_prom_labels(labels, extra=[('le', le_text)])}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{base}_sum{_prom_labels(labels)}"
                    f" {_prom_value(sample['sum'])}"
                )
                lines.append(
                    f"{base}_count{_prom_labels(labels)} {sample['count']}"
                )
                if sample.get("stddev") is not None:
                    stddev_lines.append(
                        f"{base}_stddev{_prom_labels(labels)}"
                        f" {_prom_value(sample['stddev'])}"
                    )
            if stddev_lines:
                lines.append(f"# TYPE {base}_stddev gauge")
                lines.extend(stddev_lines)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Artifact sniffing
# ----------------------------------------------------------------------


def load_artifact(path: str) -> Tuple[str, Any]:
    """Load any exported telemetry artifact; returns ``(kind, data)``.

    Kinds: ``metrics`` (samples dict), ``journal`` (event dicts),
    ``chrome`` (trace-event payload), ``coverage`` (``repro coverage
    --json`` output).
    """
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty artifact")
    if stripped.startswith("{") and "\n{" not in stripped.rstrip():
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict):
            if "traceEvents" in payload:
                return "chrome", payload
            if payload.get("type") == "coverage":
                return "coverage", payload
            if all(isinstance(v, dict) and "type" in v for v in payload.values()):
                return "metrics", payload
    # JSONL: one object per line
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    types = {r.get("type") for r in records}
    if types <= {"event", "journal_summary"}:
        return "journal", records
    if types <= {"chain_step", "chain_trace"}:
        return "journal", records
    raise ValueError(f"{path}: unrecognized artifact (record types {sorted(types)})")


# ----------------------------------------------------------------------
# The `repro stats` dashboard
# ----------------------------------------------------------------------


def _counter(samples: Dict[str, dict], name: str) -> float:
    return samples.get(name, {}).get("value", 0)


def _fmt_rate(num: float, den: float) -> str:
    return f"{num / den:.2%}" if den else "n/a"


#: Label names carrying *dimension* cardinality (hot mnemonics, attack
#: cells, ...) rather than *request scope* — excluded when grouping
#: samples into per-context slices.
_DIMENSION_LABELS = frozenset(
    ("mnemonic", "addr", "head", "attack", "rule", "overflow", "le")
)


def _stats_context_slices(samples: Dict[str, dict]) -> List[str]:
    """Per-request-context rollup: one row per distinct label set.

    A slice is defined by the sample's request-scope labels (anything
    other than the known dimension labels).  For each slice, show a few
    headline totals so ``repro stats`` answers "who did what" when a
    run mixed labeled contexts.
    """
    slices: Dict[Tuple[Tuple[str, str], ...], Dict[str, float]] = {}
    for sample in samples.values():
        name, labels = sample["name"], sample.get("labels", {})
        scope = tuple(
            sorted(
                (k, v) for k, v in labels.items() if k not in _DIMENSION_LABELS
            )
        )
        if not scope:
            continue
        bucket = slices.setdefault(scope, {})
        if sample.get("type") in ("counter", "gauge"):
            bucket[name] = bucket.get(name, 0) + sample.get("value", 0)
        elif sample.get("type") == "histogram":
            bucket[name] = bucket.get(name, 0) + sample.get("count", 0)
    if not slices:
        return []
    lines = ["context slices"]
    headline = (
        ("protect.runs", "protects"),
        ("attacks.evaluated", "attacks"),
        ("emu.instructions", "instructions"),
        ("pipeline.tasks", "tasks"),
    )
    for scope in sorted(slices):
        rendered = ",".join(f"{k}={v}" for k, v in scope)
        totals = slices[scope]
        shown = [
            f"{label} {int(totals[name]):,}"
            for name, label in headline
            if name in totals
        ]
        if not shown:
            top = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
            shown = [f"{name} {int(value):,}" for name, value in top[:3]]
        lines.append(f"  {{{rendered}}}")
        lines.append(f"    {'  '.join(shown)}")
    return lines


def _stats_metrics(samples: Dict[str, dict]) -> List[str]:
    lines: List[str] = []

    # -- engine block cache -------------------------------------------
    compiled = _counter(samples, "emu.blocks.compiled")
    hits = _counter(samples, "emu.blocks.hits")
    epoch_hits = _counter(samples, "emu.blocks.epoch_hits")
    page_revals = _counter(samples, "emu.blocks.page_revalidations")
    invalidated = _counter(samples, "emu.blocks.invalidated")
    write_aborts = _counter(samples, "emu.blocks.write_aborts")
    if compiled or hits:
        lines.append("engine block cache")
        lines.append(f"  blocks compiled            {int(compiled):>12,}")
        lines.append(
            f"  block-cache hits           {int(hits):>12,}"
            f"   (hit rate {_fmt_rate(hits, hits + compiled)})"
        )
        lines.append(f"    tier-1 epoch fast-path   {int(epoch_hits):>12,}")
        lines.append(f"    tier-2 page revalidated  {int(page_revals):>12,}")
        lines.append("  invalidations")
        lines.append(f"    tier-2 page-version      {int(invalidated):>12,}")
        lines.append(f"    tier-3 in-block store    {int(write_aborts):>12,}")

    # -- chains & attacks ---------------------------------------------
    evaluated = _counter(samples, "attacks.evaluated")
    detected = _counter(samples, "attacks.detected")
    undetected = _counter(samples, "attacks.undetected")
    traced = _counter(samples, "chains.traced")
    attributed = _counter(samples, "chains.corruptions_attributed")
    if evaluated or traced:
        lines.append("chain corruption attribution")
        if evaluated:
            lines.append(
                f"  attacks evaluated          {int(evaluated):>12,}"
                f"   (detected {int(detected):,}, undetected {int(undetected):,})"
            )
        if traced:
            lines.append(
                f"  chain runs traced          {int(traced):>12,}"
                f"   (corruptions attributed {int(attributed):,})"
            )

    # -- detection latency --------------------------------------------
    latency_rows = []
    for name in ("attacks.cycles_to_corruption", "attacks.cycles_to_detection"):
        sample = samples.get(name)
        if sample is not None and sample.get("type") == "histogram":
            latency_rows.append((name.rsplit(".", 1)[-1], sample))
    # Per attack x rule cells: labeled series on the family.
    cells = sorted(
        (
            (f"{s['labels']['attack']}.{s['labels'].get('rule', '?')}", s)
            for s in samples.values()
            if s["name"] == "attacks.cycles_to_detection"
            and "attack" in s.get("labels", {})
        ),
        key=lambda row: row[0],
    )
    if latency_rows or cells:
        lines.append("detection latency (emulated cycles from tamper)")
        for label, sample in latency_rows:
            histogram = Histogram.from_sample(sample)
            lines.append(
                f"  {label:<22} n={sample['count']:<5}"
                f" mean={sample['mean']:>12,.0f}"
                f" p50={histogram.quantile(0.5):>12,.0f}"
                f" p90={histogram.quantile(0.9):>12,.0f}"
                f" max={sample['max'] or 0:>12,.0f}"
            )
        if cells:
            lines.append("  per attack x rule cell")
            for cell, sample in cells:
                lines.append(
                    f"    {cell:<28} n={sample['count']:<4}"
                    f" mean={sample['mean']:>12,.0f}"
                    f" max={sample['max'] or 0:>12,.0f}"
                )

    # -- hottest mnemonics --------------------------------------------
    def _hot_series(family: str, label: str):
        rows = []
        for sample in samples.values():
            labels = sample.get("labels", {})
            if sample["name"] == family and label in labels:
                rows.append((labels[label], sample["value"]))
        return sorted(rows, key=lambda pair: (-pair[1], pair[0]))

    hot = _hot_series("emu.hot.mnemonic", "mnemonic")
    if hot:
        total = sum(count for _, count in hot)
        lines.append("hottest mnemonics (top 10)")
        for mnemonic, count in hot[:10]:
            lines.append(
                f"  {mnemonic:<8} {int(count):>14,}   ({_fmt_rate(count, total)})"
            )
    hot_blocks = _hot_series("emu.hot.block", "addr")
    if hot_blocks:
        lines.append("hottest blocks (executions)")
        for addr, count in hot_blocks[:10]:
            lines.append(f"  {addr:<12} {int(count):>12,}")

    # -- run totals ----------------------------------------------------
    instructions = _counter(samples, "emu.instructions")
    cycles = _counter(samples, "emu.cycles")
    if instructions:
        lines.append("run totals")
        lines.append(f"  emulated instructions      {int(instructions):>12,}")
        lines.append(f"  emulated cycles            {int(cycles):>12,}")
        mispredicts = _counter(samples, "emu.ret_mispredicts")
        lines.append(f"  return mispredicts         {int(mispredicts):>12,}")

    lines.extend(_stats_context_slices(samples))

    if not lines:
        lines.append(f"(no engine/chain samples among {len(samples)} instruments)")
    return lines


def _stats_spans(events: List[dict]) -> List[str]:
    """The ten span names with the most total time, from the complete
    (``ph: "X"``) events of a Chrome trace."""
    by_name: Dict[str, List[float]] = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event.get("dur", 0.0) / 1e6)
    ranked = sorted(by_name.items(), key=lambda item: -sum(item[1]))
    lines = [f"  {'name':<24} {'count':>7} {'total s':>10} {'mean s':>10}"]
    for name, durations in ranked[:10]:
        total = sum(durations)
        lines.append(
            f"  {name:<24} {len(durations):>7} {total:>10.4f}"
            f" {total / len(durations):>10.6f}"
        )
    return lines


def _ranked(counts: Counter) -> List[str]:
    """Keys by descending count, ties by name."""
    return sorted(counts, key=lambda key: (-counts[key], key))


def _stats_journal(records: List[dict]) -> List[str]:
    """Per-kind counts and ``seconds`` totals/p50/p95, the pipeline
    cache hit rate, the serve lane and one lane per ``ctx`` label set."""
    events = [r for r in records if r.get("type") == "event"]
    summary = next(
        (r for r in records if r.get("type") == "journal_summary"), None
    )
    kinds: Counter = Counter()
    seconds: Dict[str, List[float]] = {}
    lanes: Dict[str, Counter] = {}
    tasks: Counter = Counter()
    roles: Counter = Counter()
    rejects: Counter = Counter()
    tenants: Counter = Counter()
    for event in events:
        kind = event.get("kind", "?")
        kinds[kind] += 1
        value = event.get("seconds")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            seconds.setdefault(kind, []).append(value)
        ctx = event.get("ctx") or {}
        if ctx:
            lane = ",".join(f"{k}={v}" for k, v in sorted(ctx.items()))
            lanes.setdefault(lane, Counter())[kind] += 1
        if kind == "pipeline.task":
            tasks["hit" if event.get("cache_hit") else "miss"] += 1
        elif kind == "serve.request":
            roles[event.get("singleflight", "?")] += 1
            if "tenant" in ctx:
                tenants[ctx["tenant"]] += 1
        elif kind == "serve.reject":
            rejects[event.get("reason", "?")] += 1

    lines = [f"journal: {len(events)} events retained"]
    if summary is not None:
        lines[0] += (
            f" ({summary.get('recorded', len(events))} recorded,"
            f" {summary.get('dropped', 0)} dropped)"
        )
    for kind in _ranked(kinds):
        row = f"  {kind:<18} {kinds[kind]:>8,}"
        values = sorted(seconds.get(kind, ()))
        if values:
            row += (
                f"   total {sum(values):>10.4f}s"
                f"  p50 {nearest_rank(values, 0.5) * 1e3:>9.2f}ms"
                f"  p95 {nearest_rank(values, 0.95) * 1e3:>9.2f}ms"
            )
        lines.append(row)
    if events:
        span = events[-1].get("ts", 0.0) - events[0].get("ts", 0.0)
        lines.append(f"  time span          {span:>8.3f}s")

    if tasks:
        total = sum(tasks.values())
        lines.append(
            f"pipeline cache     hit {_fmt_rate(tasks['hit'], total)}"
            f"   ({tasks['hit']:,}/{total:,} tasks)"
        )

    requests = sum(roles.values())
    if requests or rejects:
        role_bits = "".join(
            f"   {role} {roles[role]:,}"
            for role in ("leader", "cache-hit", "follower")
            if role in roles
        )
        lines.append(
            f"serve              {requests:>8,} req"
            f"   coalesced {_fmt_rate(requests - roles['leader'], requests)}"
            f"{role_bits}"
        )
        if rejects:
            reasons = ", ".join(f"{r} {rejects[r]:,}" for r in sorted(rejects))
            lines.append(
                f"  rejected         {sum(rejects.values()):>8,}   ({reasons})"
            )
        for tenant in _ranked(tenants):
            lines.append(f"  tenant {tenant:<11} {tenants[tenant]:>8,} req")

    if lanes:
        lines.append("contexts")
        for lane in sorted(lanes):
            per = lanes[lane]
            top = "  ".join(f"{kind} {per[kind]:,}" for kind in _ranked(per)[:4])
            lines.append(f"  {{{lane}}}  {top}")
    return lines


def _stats_chrome(payload: dict) -> List[str]:
    events = [e for e in payload.get("traceEvents", []) if e.get("ph") == "X"]
    return [f"chrome trace: {len(events)} complete events"] + _stats_spans(events)


def _stats_coverage(payload: dict) -> List[str]:
    lines = [
        f"coverage: {payload.get('program', '?')} "
        f"[{payload.get('strategy', '?')}]",
        f"  protected bytes   {payload.get('protected_bytes', 0):>12,}",
        f"  covered bytes     {payload.get('covered_bytes', 0):>12,}"
        f"   ({payload.get('coverage_fraction', 0.0):.1%})",
        f"  overlap density   {payload.get('overlap_density', 0.0):>12.2f}"
        f"   chains/byte",
        f"  SPOF bytes        {payload.get('spof_bytes', 0):>12,}",
        f"  uncovered bytes   {payload.get('uncovered_bytes', 0):>12,}"
        f"   in {len(payload.get('uncovered_regions', []))} region(s)",
    ]
    breakdown = payload.get("rule_breakdown") or {}
    for rule in sorted(breakdown):
        lines.append(f"    via {rule:<20} {breakdown[rule]:>8,} bytes")
    functions = payload.get("functions") or []
    if functions:
        ranked = sorted(functions, key=lambda f: f["coverage_fraction"])
        lines.append(
            f"  {len(functions)} function(s) with protected bytes;"
            f" least covered:"
        )
        for fc in ranked[:5]:
            lines.append(
                f"    {fc['name']:<20} {fc['coverage_fraction']:>7.1%}"
                f"   ({fc['covered_bytes']}/{fc['protected_bytes']} bytes,"
                f" {fc['spof_bytes']} SPOF)"
            )
    return lines


def render_stats(kind: str, data) -> str:
    """Human dashboard for one loaded artifact (see :func:`load_artifact`)."""
    if kind == "metrics":
        lines = _stats_metrics(data)
    elif kind == "journal":
        lines = _stats_journal(data)
    elif kind == "chrome":
        lines = _stats_chrome(data)
    elif kind == "coverage":
        lines = _stats_coverage(data)
    else:
        raise ValueError(f"unknown artifact kind {kind!r}")
    return "\n".join(lines)
