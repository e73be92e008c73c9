"""The ``repro serve`` daemon: admission → single-flight → pool → cache.

One asyncio event loop fronts the existing protection pipeline:

* **Admission** — a bounded pending-job budget (``queue_depth``); past
  it a request gets ``429`` with ``Retry-After: 1`` instead of queueing
  unboundedly.
* **Single-flight** — requests that reduce to the same content key
  (:func:`~repro.serve.jobs.job_key`) coalesce onto one execution
  (:class:`~repro.serve.singleflight.SingleFlight`); the leader's
  payload fans out to every waiter byte-identically.
* **Pool execution** — an admitted leader submits its one job to the
  worker pool (``run_in_executor`` of
  :func:`~repro.serve.jobs.execute_job`).  A job that raises and a
  broken pool fail the same way: ``500`` with ``{"error": "<Type>:
  <msg>"}`` to that job's leader and followers only, nothing cached.
* **Cache** — completed payloads persist in the ``serve`` namespace of
  the content-addressed cache (:mod:`repro.cache`: an LRU memory tier
  over a disk tier), so a warm request never touches the pool
  at all.
* **Observability** — every request runs under a
  :class:`~repro.telemetry.TelemetryContext` labeled ``tenant=`` (and
  ``request=`` when the client names one); ``/metrics`` serves the
  live Prometheus text export (the ``serve.requests`` counters and the
  ``serve.request.seconds`` histogram, from which a scraper derives
  request rates and latency quantiles), ``/healthz`` the status plus
  in-flight, queued and single-flight counts, and ``/journal``
  per-request flight-recorder dumps.  ``repro stats`` over the
  ``--journal`` dump renders the serve lane.  Process-wide gauges and counters (queue
  depth, in-flight requests, jobs executed, rejections) go to the
  unlabeled registry captured at start, never to a request's context.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish (bounded by :data:`DRAIN_TIMEOUT`), answer the ones still
  waiting with a 503 ``{"error": "draining: ..."}``, counted and
  journaled like any response, then stop the pool without waiting for
  jobs still running, and leave telemetry export to the CLI's normal
  exit path, so a killed daemon still ships its journal.

The worker pool comes from :func:`serving_pool`, the one place serving
configures its cache and calls :func:`repro.pipeline.pool.worker_pool`.
:func:`serve` and :class:`ServerThread` build it before the event loop
starts (so workers fork clean) and stop it with
:func:`~repro.pipeline.pool.stop_pool` after the loop exits;
:class:`ProtectionServer` only submits to it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Optional, Tuple

from .. import telemetry
from ..cache import cache_manager, configure_cache, get_cache
from ..pipeline.pool import stop_pool, worker_pool
from ..telemetry import MetricsRegistry, TelemetryContext, get_metrics
from .http import HttpError, Request, json_response, read_request, response_bytes
from .jobs import JobValidationError, execute_job, job_key, make_task
from .singleflight import FOLLOWER, LEADER, SingleFlight

__all__ = [
    "ServeConfig",
    "ProtectionServer",
    "ServerThread",
    "serve",
    "serving_pool",
]

#: POST route -> job kind.
JOB_ROUTES = {
    "/protect": "protect",
    "/verify": "verify",
    "/attack-matrix": "attack-matrix",
}

#: Seconds a drain waits for in-flight requests before cutting them short.
DRAIN_TIMEOUT = 30.0


class BusyError(Exception):
    """Admission refused: the pending-job budget is exhausted."""


class DrainCut(Exception):
    """The drain timed out before the request's job finished."""


@dataclass(eq=False)
class ServeConfig:
    """Knobs for one server instance (all have serving-sane defaults)."""

    host: str = "127.0.0.1"
    port: int = 8437
    jobs: int = 2
    cache_dir: Optional[str] = None
    queue_depth: int = 64

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")


def serving_pool(config: ServeConfig) -> Executor:
    """The serving cache plus the worker pool that mirrors it.

    Serving requires a live cache manager: an enabled one is reused
    when ``config.cache_dir`` is unset or names its directory, otherwise
    it is replaced — memory-only when no directory is given, which still
    coalesces and serves warm hits, just not across a restart.  Then
    :func:`~repro.pipeline.pool.worker_pool` starts ``config.jobs``
    workers.  Call it before any event loop runs; the caller stops
    the pool with :func:`~repro.pipeline.pool.stop_pool`.
    """
    manager = cache_manager()
    if not manager.enabled or (
        config.cache_dir is not None and manager.cache_dir != config.cache_dir
    ):
        configure_cache(cache_dir=config.cache_dir)
    return worker_pool(config.jobs)


class ProtectionServer:
    """One serving instance; see the module docstring for the flow.

    ``pool`` is the caller's :func:`serving_pool`; the server submits
    jobs to it and never shuts it down.
    """

    def __init__(self, config: ServeConfig, pool: Executor):
        self.config = config
        self._pool = pool
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._singleflight = SingleFlight()
        self._client_tasks: set = set()
        self._metrics: Optional[MetricsRegistry] = None
        self._pending = 0
        self._requests_inflight = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._started = time.time()
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        telemetry.configure(metrics=True, recorder=True)
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._metrics = get_metrics()
        self._metrics.gauge("serve.jobs").set(config.jobs)
        self._metrics.gauge("serve.queue.capacity").set(config.queue_depth)

    def install_signal_handlers(self) -> None:
        """Graceful drain on SIGTERM/SIGINT (event-loop signal handling
        replaces the CLI's export-and-die handler while the loop runs;
        the CLI's normal exit path still exports afterwards)."""
        import signal

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    sig, self.request_shutdown, signal.Signals(sig).name
                )
            except (NotImplementedError, RuntimeError):
                pass

    def request_shutdown(self, reason: str = "shutdown") -> None:
        """Thread-safe-ish entry: flip draining and wake the runner."""
        if self._draining:
            return
        self._draining = True
        recorder = telemetry.get_recorder()
        if recorder.enabled:
            recorder.record("serve.drain", reason=reason)
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def run_until_shutdown(self) -> None:
        await self._shutdown_event.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, wait for in-flight requests, then cut them
        short: a job request still waiting answers 503 and closes."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self._requests_inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        # Every request still in flight waits on a single-flight key;
        # failing them all lets each answer its 503 before the cancel.
        self._singleflight.fail_all(DrainCut(
            f"the job did not finish within the "
            f"{DRAIN_TIMEOUT:g}s drain timeout"
        ))
        while self._requests_inflight:
            await asyncio.sleep(0.02)
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        recorder = telemetry.get_recorder()
        if recorder.enabled:
            recorder.record(
                "serve.drained",
                pending=self._pending,
                uptime=round(time.time() - self._started, 3),
            )

    # -- job execution (the single-flight leader's path) ---------------

    async def _execute(self, task: dict, key: str) -> Tuple[dict, str]:
        """Serve-cache lookup, then admission + one pool submit.

        Returns ``(payload, source)`` with source ``"hit"`` (cache),
        ``"computed"`` (pool) or ``"error"``.  Only single-flight
        leaders run this, so under a thundering herd the cache is
        probed once and the pipeline executes once.  A job that raises
        in the worker and a dead worker's ``BrokenProcessPool`` both
        become an uncached ``{"error": "<Type>: <msg>"}`` payload for
        this leader's waiters.
        """
        cache = get_cache("serve")
        if cache is not None:
            hit, payload = cache.get(key)
            if hit:
                return payload, "hit"
        if self._pending >= self.config.queue_depth:
            self._metrics.counter(
                "serve.rejections", labels={"reason": "queue"}
            ).inc()
            raise BusyError(
                f"admission queue full ({self.config.queue_depth} pending)"
            )
        self._pending += 1
        self._metrics.gauge("serve.queue.depth").set(self._pending)
        try:
            payload = await self._loop.run_in_executor(
                self._pool, execute_job, task
            )
        except Exception as exc:  # noqa: BLE001 — answered as a 500
            return {"error": f"{type(exc).__name__}: {exc}"}, "error"
        finally:
            self._pending -= 1
            self._metrics.gauge("serve.queue.depth").set(self._pending)
        self._metrics.counter("serve.jobs.executed").inc()
        if cache is not None:
            cache.put(key, payload)
        return payload, "computed"

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._client_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response(
                            exc.status,
                            {"error": exc.detail},
                            exc.headers,
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                response = await self._handle_request(request)
                writer.write(response)
                try:
                    await writer.drain()
                except ConnectionError:
                    return
                if not request.keep_alive or self._draining:
                    return
        except asyncio.CancelledError:
            pass
        finally:
            self._client_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_request(self, request: Request) -> bytes:
        try:
            if request.method == "GET":
                return self._handle_get(request)
            if request.method == "POST":
                if request.path not in JOB_ROUTES:
                    raise HttpError(404, f"no such route: {request.path}")
                if self._draining:
                    self._record_reject(request.path, "draining")
                    raise HttpError(
                        503, "server is draining", {"Retry-After": "1"}
                    )
                return await self._handle_job(request)
            raise HttpError(405, f"method {request.method} not allowed")
        except HttpError as exc:
            get_metrics().counter(
                "serve.requests",
                labels={"route": request.path, "status": str(exc.status)},
            ).inc()
            return json_response(
                exc.status,
                {"error": exc.detail},
                exc.headers,
                keep_alive=request.keep_alive,
            )
        except Exception as exc:  # noqa: BLE001 — a bug must answer 500
            get_metrics().counter(
                "serve.requests",
                labels={"route": request.path, "status": "500"},
            ).inc()
            return json_response(
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                keep_alive=request.keep_alive,
            )

    # -- job requests ---------------------------------------------------

    async def _handle_job(self, request: Request) -> bytes:
        kind = JOB_ROUTES[request.path]
        body = request.json()
        tenant = str(body.get("tenant") or "anon")
        request_id = body.get("request")
        try:
            task = make_task(
                kind,
                body.get("program", ""),
                strategy=body.get("strategy", "cleartext"),
                seed=body.get("seed", 0),
                guard_chains=body.get("guard_chains", False),
            )
        except JobValidationError as exc:
            raise HttpError(400, str(exc)) from exc
        key = job_key(task)
        labels = {"tenant": tenant}
        if request_id is not None:
            labels["request"] = str(request_id)

        self._requests_inflight += 1
        self._metrics.gauge("serve.inflight").set(self._requests_inflight)
        started = time.perf_counter()
        joined = self._singleflight.is_inflight(key)
        try:
            with TelemetryContext(labels):
                try:
                    (payload, source), sf_role = await self._singleflight.run(
                        key, lambda: self._execute(task, key)
                    )
                except DrainCut as exc:
                    payload = {"error": f"draining: {exc}"}
                    source, sf_role = "draining", FOLLOWER if joined else LEADER
                except BusyError as exc:
                    self._record_reject(request.path, "queue", tenant=tenant)
                    raise HttpError(
                        429, str(exc), {"Retry-After": "1"}
                    ) from exc
                role = (
                    FOLLOWER
                    if sf_role == FOLLOWER
                    else ("cache-hit" if source == "hit" else "leader")
                )
                status = {"error": 500, "draining": 503}.get(source, 200)
                elapsed = time.perf_counter() - started
                ctx_metrics = get_metrics()
                ctx_metrics.counter(
                    "serve.requests",
                    labels={"route": request.path, "status": str(status)},
                ).inc()
                ctx_metrics.counter(
                    f"serve.singleflight.{'follower' if role == FOLLOWER else 'leader'}"
                ).inc()
                ctx_metrics.histogram(
                    "serve.request.seconds",
                    buckets=(
                        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60,
                    ),
                    labels={"route": request.path},
                ).observe(elapsed)
                recorder = telemetry.get_recorder()
                if recorder.enabled:
                    event = {
                        "route": request.path,
                        "program": task["program"],
                        "strategy": task["strategy"],
                        "seconds": round(elapsed, 6),
                        "status": status,
                        "singleflight": role,
                        "in_flight": self._requests_inflight,
                        "queued": self._pending,
                    }
                    if request_id is not None:
                        event["request"] = str(request_id)
                    recorder.record("serve.request", **event)
        finally:
            self._requests_inflight -= 1
            self._metrics.gauge("serve.inflight").set(self._requests_inflight)
        headers = {"X-Singleflight": role, "X-Content-Key": key}
        return json_response(
            status, payload, headers,
            keep_alive=request.keep_alive and not self._draining,
        )

    def _record_reject(self, route: str, reason: str, **fields) -> None:
        recorder = telemetry.get_recorder()
        if recorder.enabled:
            recorder.record("serve.reject", route=route, reason=reason, **fields)

    # -- introspection requests -----------------------------------------

    def _handle_get(self, request: Request) -> bytes:
        if request.path == "/metrics":
            body = telemetry.prometheus_text(get_metrics()).encode("utf-8")
            return response_bytes(
                200,
                body,
                "text/plain; version=0.0.4",
                keep_alive=request.keep_alive,
            )
        if request.path == "/healthz":
            return json_response(
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "in_flight": self._requests_inflight,
                    "queued": self._pending,
                    "singleflight": {
                        "leaders": self._singleflight.leaders,
                        "followers": self._singleflight.followers,
                        "in_flight": len(self._singleflight),
                    },
                    "jobs": self.config.jobs,
                    "uptime_seconds": round(time.time() - self._started, 3),
                },
                keep_alive=request.keep_alive,
            )
        if request.path == "/journal":
            return self._handle_journal(request)
        raise HttpError(404, f"no such route: {request.path}")

    def _handle_journal(self, request: Request) -> bytes:
        """Per-request flight-recorder dump (NDJSON), filterable by the
        ``request=`` / ``tenant=`` context labels."""
        want_request = request.query.get("request")
        want_tenant = request.query.get("tenant")
        lines = []
        for event in telemetry.get_recorder().iter_events():
            ctx = event.get("ctx") or {}
            if want_request is not None and ctx.get("request") != want_request:
                continue
            if want_tenant is not None and ctx.get("tenant") != want_tenant:
                continue
            lines.append(json.dumps(event, sort_keys=True))
        body = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        return response_bytes(
            200, body, "application/x-ndjson", keep_alive=request.keep_alive
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


async def _serve_async(
    config: ServeConfig, pool: Executor, install_signals: bool, announce
) -> None:
    server = ProtectionServer(config, pool)
    await server.start()
    if install_signals:
        server.install_signal_handlers()
    if announce is not None:
        announce(server)
    await server.run_until_shutdown()


def serve(config: ServeConfig, announce=None) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns 0 on clean drain."""
    pool = serving_pool(config)
    try:
        asyncio.run(
            _serve_async(config, pool, install_signals=True, announce=announce)
        )
    finally:
        stop_pool(pool)
    return 0


class ServerThread:
    """An in-process server on a background thread (tests, benchmarks).

    ::

        with ServerThread(ServeConfig(port=0, jobs=1)) as srv:
            client = ServeClient("127.0.0.1", srv.port)
            ...

    ``port=0`` binds an ephemeral port; the bound port is available as
    ``.port`` once the context is entered.  Entering builds the
    :func:`serving_pool` from the entering thread, before the server's
    loop thread exists; ``stop()`` performs the same graceful drain a
    SIGTERM would, and exiting stops the pool as :func:`serve` does.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self._pool: Optional[Executor] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._server: Optional[ProtectionServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self.port: Optional[int] = None

    def __enter__(self) -> "ServerThread":
        self._pool = serving_pool(self.config)
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._error is not None:
            stop_pool(self._pool)
            raise RuntimeError(
                f"server failed to start: {self._error or 'timed out after 30s'}"
            )
        return self

    def _main(self) -> None:
        async def body():
            self._server = ProtectionServer(self.config, self._pool)
            try:
                await self._server.start()
            except BaseException as exc:  # noqa: BLE001 — surfaced in enter
                self._error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self.port = self._server.port
            self._ready.set()
            await self._server.run_until_shutdown()

        try:
            asyncio.run(body())
        except BaseException:  # noqa: BLE001 — thread must not die silent
            if not self._ready.is_set():
                self._ready.set()

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(
                    self._server.request_shutdown, "stop"
                )
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __exit__(self, *exc) -> bool:
        self.stop()
        if self._pool is not None:
            stop_pool(self._pool)
        return False

    @property
    def server(self) -> Optional[ProtectionServer]:
        return self._server
