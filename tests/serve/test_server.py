"""End-to-end serving-layer tests over a real socket and worker pool.

The heavyweight fixtures are module-scoped: one server instance backs
all the read-mostly tests; dedicated short-lived servers cover quota,
backpressure and drain, whose configs must differ.  Global state the
server touches (telemetry, the cache manager) is snapshotted and
restored so these tests leave no trace on the rest of the suite.
"""

import asyncio
import base64
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.cache as cache_mod
import repro.serve.jobs as jobs_mod
from repro import telemetry
from repro.core import Parallax, ProtectConfig
from repro.corpus import build_program_cached
from repro.pipeline import config_for_program
from repro.pipeline.pool import mp_context
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.jobs import make_task
from repro.serve.server import ProtectionServer, serving_pool


@pytest.fixture(scope="module")
def serve_env():
    """Snapshot/restore the process-wide state the server mutates."""
    old_manager = cache_mod._manager
    with telemetry.telemetry_session(metrics=True, tracing=False, recorder=True):
        yield
    cache_mod._manager = old_manager


@pytest.fixture(scope="module")
def server(serve_env):
    config = ServeConfig(port=0, jobs=2)
    with ServerThread(config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = ServeClient("127.0.0.1", server.port, timeout=180)
    yield c
    c.close()


def direct_protect(kind="protect", program="gzip", **fields):
    """The ground truth: run the pipeline directly, no server."""
    task = make_task(kind, program, **fields)
    config = config_for_program(program, ProtectConfig(
        strategy=task["strategy"],
        seed=task["seed"],
        guard_chains=task["guard_chains"],
    ))
    return Parallax(config).protect(build_program_cached(program))


# -- basic routes -------------------------------------------------------


def test_healthz(client):
    status, _headers, payload = client.get("/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["jobs"] == 2


def test_protect_roundtrip_matches_direct_pipeline(client):
    direct = direct_protect(program="gzip", seed=7)
    status, headers, payload = client.job("protect", "gzip", seed=7)
    assert status == 200
    assert headers["x-singleflight"] in ("leader", "cache-hit")
    assert payload["fingerprint"] == direct.image.fingerprint()
    artifact = base64.b64decode(payload["artifact_b64"])
    assert artifact == direct.image.canonical_bytes()
    assert payload["chains"] == len(direct.report.chains)
    assert payload["report"] == direct.report.to_dict()


def test_repeat_request_is_cache_hit(client):
    first = client.job("protect", "gzip", seed=11)
    second = client.job("protect", "gzip", seed=11)
    assert first[0] == second[0] == 200
    assert second[1]["x-singleflight"] == "cache-hit"
    assert first[2] == second[2]


def test_verify_job(client):
    status, _headers, payload = client.job("verify", "gzip", seed=0)
    assert status == 200
    assert payload["behaviour_preserved"] is True
    assert payload["divergence"] is None
    assert payload["protected"]["crashed"] is False
    assert payload["overhead_percent"] is not None


def test_attack_matrix_job(client):
    status, _headers, payload = client.job("attack-matrix", "gzip", seed=0)
    assert status == 200
    assert payload["all_detected"] is True
    assert payload["attacks"]["static"]["detected"] is True
    assert payload["attacks"]["wurster"]["detected"] is True


def test_validation_errors_are_400(client):
    assert client.job("protect", "nosuch")[0] == 400
    assert client.post("/protect", {"program": "gzip", "strategy": "bogus"})[0] == 400
    assert client.post("/protect", {"program": "gzip", "seed": "NaN"})[0] == 400


def test_mistyped_job_fields_are_400(client):
    for fields in (
        {"guard_chains": "no"},
        {"guard_chains": 1},
        {"max_steps": True},
        {"max_steps": "10"},
    ):
        status, _headers, payload = client.post("/protect", {"program": "gzip", **fields})
        assert status == 400, fields
        assert next(iter(fields)) in payload["error"]


def test_unknown_route_is_404(client):
    assert client.get("/nope")[0] == 404
    assert client.post("/nope", {})[0] == 404


def test_unsupported_method_is_405(client):
    assert client.request("PUT", "/protect", {"program": "gzip"})[0] == 405


# -- the acceptance criterion: 100 concurrent identical requests -------


def test_hundred_concurrent_identical_requests_execute_once(server):
    direct = direct_protect(program="lame", seed=123)
    expected = base64.b64encode(direct.image.canonical_bytes()).decode()

    def one(_i):
        with ServeClient("127.0.0.1", server.port, timeout=180) as c:
            status, headers, payload = c.job("protect", "lame", seed=123)
            return status, headers["x-singleflight"], payload["artifact_b64"]

    with ThreadPoolExecutor(100) as pool:
        results = list(pool.map(one, range(100)))

    assert all(status == 200 for status, _role, _artifact in results)
    roles = [role for _status, role, _artifact in results]
    # Exactly one leader computed; everyone else coalesced onto it (or,
    # for stragglers arriving after it finished, hit the cache it
    # populated).  Either way the pipeline ran exactly once.
    assert roles.count("leader") == 1, roles
    assert set(roles) <= {"leader", "follower", "cache-hit"}
    artifacts = {artifact for _status, _role, artifact in results}
    assert artifacts == {expected}


# -- observability routes ----------------------------------------------


def test_metrics_endpoint_serves_prometheus_text(client):
    client.job("protect", "gzip", seed=0, tenant="acme")
    status, headers, text = client.get("/metrics")
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    assert "# TYPE" in text
    assert "serve_singleflight_leader_total" in text
    assert "serve_requests_total" in text
    # Tenant labels flow from the request context into the exporter.
    assert 'tenant="acme"' in text


def test_process_wide_queue_depth_gauge_is_unlabeled(client):
    for index in range(3):
        status, headers, _payload = client.job(
            "protect", "gzip", seed=40 + index, tenant="t", request=f"r{index}"
        )
        assert status == 200 and headers["x-singleflight"] == "leader"
    _status, _headers, text = client.get("/metrics")
    series = [
        line for line in text.splitlines()
        if line.startswith(("serve_queue_depth ", "serve_queue_depth{"))
    ]
    assert series == ["serve_queue_depth 0"]


def test_stats_singleflight_and_metrics_request_latency(client):
    client.job("protect", "gzip", seed=1)
    status, _headers, payload = client.get("/stats")
    assert status == 200
    assert payload["singleflight"]["leaders"] >= 1
    assert {"in_flight", "queued", "singleflight", "tenants"} <= set(payload)
    # Request rates and latencies come from /metrics, not /stats.
    _status, _headers, text = client.get("/metrics")
    counts = [
        float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
        if line.startswith("serve_request_seconds_count{")
        and 'route="/protect"' in line
    ]
    assert counts and sum(counts) >= 1


def test_journal_filters_by_request_label(client):
    client.job("protect", "gzip", seed=2, tenant="acme", request="r-77")
    client.job("protect", "gzip", seed=3, tenant="other")
    status, headers, text = client.get("/journal?request=r-77")
    assert status == 200
    assert headers["content-type"] == "application/x-ndjson"
    events = [json.loads(line) for line in text.strip().splitlines()]
    assert events
    assert all(e["ctx"]["request"] == "r-77" for e in events)
    assert any(e["kind"] == "serve.request" for e in events)
    # And the tenant filter slices the same journal differently.
    _status, _h, other = client.get("/journal?tenant=other")
    other_events = [json.loads(line) for line in other.strip().splitlines()]
    assert other_events
    assert all(e["ctx"]["tenant"] == "other" for e in other_events)


# -- admission control --------------------------------------------------


def test_quota_exhaustion_returns_429_with_retry_after(serve_env):
    config = ServeConfig(
        port=0, jobs=1, quota_rate=0.001, quota_burst=2
    )
    with ServerThread(config) as srv:
        with ServeClient("127.0.0.1", srv.port, timeout=180) as c:
            assert c.job("protect", "gzip", seed=0, tenant="t")[0] == 200
            assert c.job("protect", "gzip", seed=0, tenant="t")[0] == 200
            status, headers, payload = c.job(
                "protect", "gzip", seed=0, tenant="t"
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "quota" in payload["error"] or "over" in payload["error"]
            # Another tenant is unaffected.
            assert c.job("protect", "gzip", seed=0, tenant="u")[0] == 200


def test_queue_backpressure_returns_429(serve_env):
    config = ServeConfig(port=0, jobs=1, queue_depth=1)
    with ServerThread(config) as srv:

        def one(seed):
            with ServeClient("127.0.0.1", srv.port, timeout=180) as c:
                status, headers, _payload = c.job("protect", "lame", seed=seed)
                return status, headers

        with ThreadPoolExecutor(6) as pool:
            results = list(pool.map(one, range(6)))
        statuses = [status for status, _headers in results]
        assert 200 in statuses
        assert 429 in statuses, statuses
        for status, headers in results:
            if status == 429:
                assert int(headers["retry-after"]) >= 1


# -- graceful drain -----------------------------------------------------


def test_drain_finishes_inflight_and_journals_shutdown(serve_env):
    config = ServeConfig(port=0, jobs=1)

    async def body(pool):
        server = ProtectionServer(config, pool)
        await server.start()
        port = server.port
        server.request_shutdown("test")
        await server.run_until_shutdown()
        return port

    with serving_pool(config) as pool:
        port = asyncio.run(body(pool))
    # The listener is gone after drain.
    with pytest.raises(OSError):
        with ServeClient("127.0.0.1", port, timeout=2) as c:
            c.get("/healthz")
    kinds = [e["kind"] for e in telemetry.get_recorder().iter_events()]
    assert "serve.drain" in kinds
    assert "serve.drained" in kinds


def test_exit_is_bounded_by_drain_timeout(serve_env, monkeypatch, tmp_path):
    """A job still running when the drain gives up does not hold up exit:
    leaving the server takes about ``drain_timeout``, not the job's 8 s,
    and the worker that ran it is gone afterwards.  The cut-short request
    is answered 503, counted and journaled."""
    context = mp_context()
    if context.get_start_method() != "fork":
        pytest.skip("the patched executor reaches the workers only by fork")
    started = context.Event()

    def sleeping(task):
        started.set()
        time.sleep(8)
        return {"slept": 8}

    # Patched before serving_pool forks the workers, which inherit it.
    monkeypatch.setitem(jobs_mod._EXECUTORS, "protect", sleeping)
    drain_timeout = 1.0
    config = ServeConfig(
        port=0, jobs=1, cache_dir=str(tmp_path), drain_timeout=drain_timeout
    )

    def one(port):
        with ServeClient("127.0.0.1", port, timeout=30) as c:
            return c.job("protect", "gzip", seed=31)

    def drained_503s():
        return sum(
            sample["value"]
            for sample in telemetry.get_metrics().to_dict().values()
            if sample["name"] == "serve.requests"
            and sample["labels"].get("route") == "/protect"
            and sample["labels"].get("status") == "503"
        )

    before = drained_503s()
    with ThreadPoolExecutor(1) as clients:
        with ServerThread(config) as srv:
            workers = list(srv._pool._processes)
            request = clients.submit(one, srv.port)
            assert started.wait(60), "the job never reached the worker"
            began = time.monotonic()
        elapsed = time.monotonic() - began
        status, headers, payload = request.result(timeout=30)
    assert elapsed <= drain_timeout + 3.0, elapsed
    assert status == 503, payload
    assert payload["error"].startswith("draining: ")
    assert headers["connection"] == "close"
    assert drained_503s() == before + 1
    events = [
        e for e in telemetry.get_recorder().iter_events()
        if e["kind"] == "serve.request" and e.get("status") == 503
    ]
    assert [(e["route"], e["singleflight"]) for e in events] == [
        ("/protect", "leader")
    ]
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_post_during_drain_is_503(serve_env):
    config = ServeConfig(port=0, jobs=1)

    async def body(pool):
        server = ProtectionServer(config, pool)
        await server.start()
        server._draining = True
        from repro.serve.http import Request

        request = Request(
            "POST", "/protect", {}, {},
            json.dumps({"program": "gzip"}).encode(),
        )
        response = await server._handle_request(request)
        server._draining = False
        server.request_shutdown("test")
        await server.run_until_shutdown()
        return response

    with serving_pool(config) as pool:
        response = asyncio.run(body(pool))
    assert response.startswith(b"HTTP/1.1 503 ")
    assert b"Retry-After" in response


def test_server_thread_stop_is_idempotent(serve_env):
    config = ServeConfig(port=0, jobs=1)
    srv = ServerThread(config)
    with srv:
        with ServeClient("127.0.0.1", srv.port, timeout=30) as c:
            assert c.get("/healthz")[0] == 200
        srv.stop()
    srv.stop()  # exit + explicit double-stop must not raise


def test_server_thread_with_one_worker_serves_health_and_a_job(serve_env):
    with ServerThread(ServeConfig(port=0, jobs=1)) as srv:
        with ServeClient("127.0.0.1", srv.port, timeout=180) as c:
            status, _headers, health = c.get("/healthz")
            assert status == 200
            assert health["status"] == "ok" and health["jobs"] == 1
            status, headers, payload = c.job("protect", "bzip2", seed=5)
    assert status == 200
    assert headers["x-singleflight"] in ("leader", "cache-hit")
    direct = direct_protect(program="bzip2", seed=5)
    assert payload["fingerprint"] == direct.image.fingerprint()


def test_dead_worker_fails_requests_with_a_typed_error(serve_env, tmp_path):
    # A fresh cache directory, so no job is answered without the pool.
    config = ServeConfig(port=0, jobs=1, cache_dir=str(tmp_path))
    with ServerThread(config) as srv:
        # The pool has no public handle on its workers; kill them all.
        for pid in list(srv._pool._processes):
            os.kill(pid, signal.SIGKILL)
        with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
            for seed in (901, 902):
                status, _headers, payload = c.job("protect", "gzip", seed=seed)
                assert status == 500
                assert payload["error"].startswith("BrokenProcessPool")
            assert c.get("/healthz")[0] == 200


def test_failing_job_fails_only_its_own_herd(serve_env, monkeypatch, tmp_path):
    """A job that raises in the worker answers 500 with its error to its
    leader and every follower, each journaled, is not cached, and runs
    again on the next identical request; a concurrent job with another
    key gets 200.
    """
    context = mp_context()
    if context.get_start_method() != "fork":
        pytest.skip("the patched executor reaches the workers only by fork")
    release = context.Event()
    runs = context.Value("i", 0)
    protect = jobs_mod._EXECUTORS["protect"]

    def failing_on_seed_13(task):
        if task["seed"] != 13:
            return protect(task)
        with runs.get_lock():
            runs.value += 1
        release.wait(60)
        raise RuntimeError("boom on seed 13")

    # Patched before serving_pool forks the workers, which inherit it.
    monkeypatch.setitem(jobs_mod._EXECUTORS, "protect", failing_on_seed_13)
    herd = 8
    error = {"error": "RuntimeError: boom on seed 13"}
    config = ServeConfig(port=0, jobs=2, cache_dir=str(tmp_path))
    with ServerThread(config) as srv:

        def one(seed):
            with ServeClient("127.0.0.1", srv.port, timeout=120) as c:
                return c.job("protect", "gzip", seed=seed, request=f"s{seed}")

        with ServeClient("127.0.0.1", srv.port, timeout=30) as c, \
                ThreadPoolExecutor(herd + 1) as pool:
            failing = [pool.submit(one, 13) for _ in range(herd)]
            deadline = time.monotonic() + 60
            while c.get("/stats")[2]["singleflight"]["followers"] < herd - 1:
                assert time.monotonic() < deadline, "the herd never formed"
                time.sleep(0.01)
            # The other key runs on the second worker while the failing
            # leader still holds the first.
            status, _headers, payload = pool.submit(one, 14).result(timeout=120)
            assert status == 200 and payload["seed"] == 14
            release.set()
            results = [f.result(timeout=120) for f in failing]
            assert [(s, p) for s, _h, p in results] == [(500, error)] * herd
            roles = sorted(h["x-singleflight"] for _s, h, _p in results)
            assert roles == ["follower"] * (herd - 1) + ["leader"]
            assert runs.value == 1
            journal = c.get("/journal?request=s13")[2].splitlines()
            statuses = [
                event["status"] for event in map(json.loads, journal)
                if event["kind"] == "serve.request"
            ]
            assert statuses == [500] * herd
            stats = c.get("/stats")[2]["singleflight"]
            assert stats == {"leaders": 2, "followers": herd - 1, "in_flight": 0}

            status, headers, payload = c.job("protect", "gzip", seed=13)
            assert (status, payload) == (500, error)
            assert headers["x-singleflight"] == "leader"
            assert runs.value == 2
