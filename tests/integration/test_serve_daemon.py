"""``repro serve`` as a real daemon process: start, load, drain, export.

One module-scoped run starts ``python -m repro serve --port 0`` with a
disk cache, a journal and a metrics export, reads the bound port
off the ``listening on http://HOST:PORT`` line (the prefix the
perfbench harness parses too), drives a thundering herd plus mixed
jobs across tenants, probes the introspection routes, then sends
SIGTERM.  The tests below assert on what that run observed and
exported.  The artifacts land under pytest's basetemp (``serve0/``),
so ``--basetemp`` keeps them for ``repro stats``.  One more test
restarts a daemon over a cache directory whose entries were truncated.
"""

import glob
import json
import os
import re
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.serve import ServeClient
from repro.telemetry import render_stats

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
HERD = 24


def _await_listening(proc, timeout=60):
    """(host, port) from the daemon's announce line, or fail."""
    seen = []
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            seen.append(line)
            match = LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
    finally:
        watchdog.cancel()
    pytest.fail("repro serve never announced a port:\n" + "".join(seen))


def _read_ndjson(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@contextmanager
def _daemon(*args):
    """A ``repro serve --port 0 ARGS...`` process: ``(proc, host, port)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        host, port = _await_listening(proc)
        yield proc, host, port
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve")
    paths = {
        "journal": str(out / "serve-journal.jsonl"),
        "metrics": str(out / "serve-metrics.json"),
    }
    with _daemon(
        "--jobs", "2", "--cache-dir", str(out / "cache"),
        "--journal", paths["journal"],
        "--metrics", paths["metrics"],
    ) as (proc, host, port):

        def request(job):
            kind, body = job
            with ServeClient(host, port, timeout=180) as c:
                status, headers, payload = c.post(f"/{kind}", body)
                return status, headers.get("x-singleflight"), payload

        herd = [("protect", {"program": "lame", "seed": 7,
                             "tenant": "herd", "request": "r-herd"})] * HERD
        mixed = [
            ("protect", {"program": "gzip", "seed": i, "tenant": "acme"})
            for i in range(4)
        ] + [("verify", {"program": "gzip", "seed": 0, "tenant": "acme"})]
        with ThreadPoolExecutor(HERD) as pool:
            results = list(pool.map(request, herd + mixed))

        with ServeClient(host, port, timeout=60) as client:
            client.post("/protect", {"program": "gzip", "seed": 0})
            repeat = client.post("/protect", {"program": "gzip", "seed": 0})
            metrics = client.get("/metrics")
            journal = client.get("/journal?request=r-herd")
            health = client.get("/healthz")
            stats_route = client.get("/stats")
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=90)
    return {
        "results": results,
        "repeat": repeat,
        "metrics": metrics,
        "journal": journal,
        "health": health,
        "stats_route": stats_route,
        "exit_code": exit_code,
        "paths": paths,
    }


def test_every_request_succeeds(run):
    bad = [(s, p) for s, _role, p in run["results"] if s != 200]
    assert not bad


def test_herd_runs_once_and_answers_one_body(run):
    herd = run["results"][:HERD]
    roles = [role for _s, role, _p in herd]
    assert roles.count("leader") == 1, roles
    assert set(roles) <= {"leader", "follower", "cache-hit"}
    bodies = {json.dumps(p, sort_keys=True) for _s, _r, p in herd}
    assert len(bodies) == 1, "coalesced responses diverged"


def test_repeated_request_is_a_cache_hit(run):
    status, headers, _payload = run["repeat"]
    assert status == 200
    assert headers["x-singleflight"] == "cache-hit"


def test_metrics_show_coalescing_cache_hits_and_tenant_label(run):
    status, headers, text = run["metrics"]
    assert status == 200 and headers["content-type"].startswith("text/plain")
    lines = text.splitlines()
    assert any(line.startswith("# TYPE") for line in lines)

    def total(prefix):
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith(prefix)
        )

    assert total("serve_singleflight_follower_total") > 0
    assert total("serve_singleflight_leader_total") > 0
    assert total("cache_serve_hits_total") > 0
    assert any('tenant="acme"' in line for line in lines)


def test_journal_route_filters_by_request(run):
    status, headers, text = run["journal"]
    assert status == 200 and headers["content-type"] == "application/x-ndjson"
    events = [json.loads(line) for line in text.strip().splitlines()]
    assert events
    assert all(e["ctx"]["request"] == "r-herd" for e in events)


def test_healthz_reports_followers_and_metrics_latency(run):
    status, _headers, health = run["health"]
    assert status == 200
    assert health["singleflight"]["followers"] > 0
    assert run["stats_route"][0] == 404
    # Request latencies are a /metrics histogram, not a /healthz window.
    counts = [
        float(line.rsplit(" ", 1)[1])
        for line in run["metrics"][2].splitlines()
        if line.startswith("serve_request_seconds_count{")
        and 'route="/protect"' in line
    ]
    assert counts and sum(counts) >= 1


def test_sigterm_drains_and_exports_the_journal(run):
    assert run["exit_code"] == 0
    exported = _read_ndjson(run["paths"]["journal"])
    kinds = {e.get("kind") for e in exported if e.get("type") == "event"}
    assert {"serve.request", "serve.drained"} <= kinds, kinds
    summaries = [e for e in exported if e.get("type") == "journal_summary"]
    assert len(summaries) == 1
    # the serve lane `repro stats` renders from the dump
    assert re.search(
        r"^serve .*coalesced", render_stats("journal", exported), re.M
    )
    with open(run["paths"]["metrics"]) as fh:
        samples = json.load(fh)
    assert samples["serve.jobs.executed"]["value"] >= 1


def _protect_gzip_once(cache_dir):
    """One gzip protect job on a fresh daemon over ``cache_dir``:
    ``(status, payload, /metrics text)``."""
    with _daemon("--jobs", "1", "--cache-dir", cache_dir) as (proc, host, port):
        with ServeClient(host, port, timeout=180) as client:
            status, _headers, payload = client.post(
                "/protect", {"program": "gzip", "seed": 0}
            )
            metrics = client.get("/metrics")[2]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=90) == 0
    return status, payload, metrics


def test_truncated_disk_entries_are_recomputed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    status, warm, _metrics = _protect_gzip_once(cache_dir)
    assert status == 200
    for namespace in ("serve", "protect"):
        entries = glob.glob(os.path.join(cache_dir, namespace, "*.pkl"))
        assert entries, namespace
        for path in entries:
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)

    status, again, metrics = _protect_gzip_once(cache_dir)
    assert status == 200
    assert again["fingerprint"] == warm["fingerprint"]
    assert again["artifact_b64"] == warm["artifact_b64"]
    corrupt = sum(
        float(line.rsplit(" ", 1)[1])
        for line in metrics.splitlines()
        if line.startswith("cache_serve_disk_corrupt")
    )
    assert corrupt > 0
