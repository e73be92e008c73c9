"""``repro serve`` as a real daemon process: start, load, drain, export.

One module-scoped run starts ``python -m repro serve --port 0`` with a
disk cache, a journal, a live NDJSON stream and a Prometheus snapshot,
reads the bound port off the ``listening on http://HOST:PORT`` line
(the prefix the perfbench harness parses too), drives a thundering
herd plus mixed jobs across tenants, probes the introspection routes,
then sends SIGTERM.  The tests below assert on what that run observed
and exported.  The artifacts land under pytest's basetemp
(``serve0/``), so ``--basetemp`` keeps them for ``repro top``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import ServeClient

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


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve")
    paths = {
        "journal": str(out / "serve-journal.jsonl"),
        "live": str(out / "serve-live.ndjson"),
        "prom": str(out / "serve-metrics.prom"),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--cache-dir", str(out / "cache"),
         "--quota-rate", "200",
         "--journal", paths["journal"],
         "--journal-follow", paths["live"],
         "--prom", paths["prom"]],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        host, port = _await_listening(proc)

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
            stats = client.get("/stats")
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=90)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {
        "results": results,
        "repeat": repeat,
        "metrics": metrics,
        "journal": journal,
        "stats": stats,
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


def test_stats_route_reports_followers_and_windows(run):
    status, _headers, stats = run["stats"]
    assert status == 200
    assert stats["singleflight"]["followers"] > 0
    assert stats["windows"]["serve.request"]["count"] > 0


def test_sigterm_drains_and_exports_the_journal(run):
    assert run["exit_code"] == 0
    exported = _read_ndjson(run["paths"]["journal"])
    kinds = {e.get("kind") for e in exported if e.get("type") == "event"}
    assert {"serve.request", "serve.drained"} <= kinds, kinds
    summaries = [e for e in exported if e.get("type") == "journal_summary"]
    assert len(summaries) == 1
    assert os.path.getsize(run["paths"]["prom"]) > 0


def test_follow_stream_ends_with_a_summary(run):
    live = _read_ndjson(run["paths"]["live"])
    assert live and live[-1]["type"] == "journal_summary"
