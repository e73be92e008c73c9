"""The ``repro serve`` daemon: admission → single-flight → pool → cache.

One asyncio event loop fronts the existing protection pipeline:

* **Admission** — per-tenant token-bucket quotas
  (:class:`~repro.serve.quota.QuotaManager`) and a bounded pending-job
  budget; past either bound the request gets ``429`` with a
  ``Retry-After`` hint instead of queueing unboundedly.
* **Single-flight** — requests that reduce to the same content key
  (:func:`~repro.serve.jobs.job_key`) coalesce onto one execution
  (:class:`~repro.serve.singleflight.SingleFlight`); the leader's
  payload fans out to every waiter byte-identically.
* **Batched pool scheduling** — admitted jobs land on an asyncio queue
  drained by a scheduler task that greedily packs up to ``batch_max``
  ready jobs into one :func:`~repro.serve.jobs.execute_batch` pool
  dispatch (``run_in_executor``), amortizing IPC/pickle overhead when
  the queue is deep while adding zero latency when it is not (a lone
  job ships immediately).
* **Cache** — completed payloads persist in the ``serve`` namespace of
  the content-addressed cache (:mod:`repro.cache`: an LRU memory tier
  over a sharded disk tier), so a warm request never touches the pool
  at all.
* **Observability** — every request runs under a
  :class:`~repro.telemetry.TelemetryContext` labeled ``tenant=`` (and
  ``request=`` when the client names one); ``/metrics`` serves the
  live Prometheus text export, ``/stats`` the rolling-window
  throughput/latency snapshot, and ``/journal`` per-request
  flight-recorder dumps.  ``--journal-follow`` NDJSON feeds
  ``repro top``'s serve lane.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish (bounded by ``drain_timeout``), retire the scheduler,
  and leave telemetry export to the CLI's normal exit path, so a killed
  daemon still ships its journal.

The worker pool comes from :func:`serving_pool`, the one place serving
configures its cache and calls :func:`repro.pipeline.pool.worker_pool`.
:func:`serve` and :class:`ServerThread` build it before the event loop
starts (so workers fork clean) and shut it down after the loop exits;
:class:`ProtectionServer` only submits to it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import Executor
from typing import List, Optional, Tuple

from .. import telemetry
from ..cache import cache_manager, configure_cache, get_cache
from ..pipeline.pool import worker_pool
from ..telemetry import TelemetryContext, WindowSet, get_metrics
from .http import HttpError, Request, json_response, read_request, response_bytes
from .jobs import (
    DEFAULT_MAX_STEPS,
    JobValidationError,
    execute_batch,
    job_key,
    make_task,
)
from .quota import QuotaManager
from .singleflight import FOLLOWER, SingleFlight

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


class BusyError(Exception):
    """Admission refused: the pending-job budget is exhausted."""

    def __init__(self, detail: str, retry_after: float = 1.0):
        super().__init__(detail)
        self.detail = detail
        self.retry_after = retry_after


class ServeConfig:
    """Knobs for one server instance (all have serving-sane defaults)."""

    __slots__ = (
        "host",
        "port",
        "jobs",
        "cache_dir",
        "queue_depth",
        "batch_max",
        "quota_rate",
        "quota_burst",
        "window_seconds",
        "drain_timeout",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8437,
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        queue_depth: int = 64,
        batch_max: int = 4,
        quota_rate: float = 0.0,
        quota_burst: Optional[float] = None,
        window_seconds: float = 30.0,
        drain_timeout: float = 30.0,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.queue_depth = queue_depth
        self.batch_max = batch_max
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.window_seconds = window_seconds
        self.drain_timeout = drain_timeout


def serving_pool(config: ServeConfig) -> Executor:
    """The serving cache plus the worker pool that mirrors it.

    Serving requires a live cache manager: an enabled one is reused
    when ``config.cache_dir`` is unset or names its directory, otherwise
    it is replaced — memory-only when no directory is given, which still
    coalesces and serves warm hits, just not across a restart.  Then
    :func:`~repro.pipeline.pool.worker_pool` starts ``config.jobs``
    workers.  Call it before any event loop runs; the caller shuts
    the pool down.
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
    batches to it and never shuts it down.
    """

    def __init__(self, config: ServeConfig, pool: Executor):
        self.config = config
        self._pool = pool
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._singleflight = SingleFlight()
        self._quota = QuotaManager(config.quota_rate, config.quota_burst)
        self._queue: Optional[asyncio.Queue] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._batch_tasks: set = set()
        self._client_tasks: set = set()
        self._windows: Optional[WindowSet] = None
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
        self._queue = asyncio.Queue()
        self._shutdown_event = asyncio.Event()
        self._windows = WindowSet(
            window_seconds=config.window_seconds
        ).subscribe_to(telemetry.get_recorder())
        self._scheduler_task = self._loop.create_task(self._scheduler())
        self._server = await asyncio.start_server(
            self._handle_client, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        metrics = get_metrics()
        metrics.gauge("serve.jobs").set(config.jobs)
        metrics.gauge("serve.queue.capacity").set(config.queue_depth)

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
        """Stop accepting, finish in-flight work, retire the scheduler."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while self._requests_inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._queue is not None:
            self._queue.put_nowait(None)
        if self._scheduler_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._scheduler_task
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        if self._windows is not None:
            self._windows.close()
        recorder = telemetry.get_recorder()
        if recorder.enabled:
            recorder.record(
                "serve.drained",
                pending=self._pending,
                uptime=round(time.time() - self._started, 3),
            )

    # -- batched pool scheduling ---------------------------------------

    async def _scheduler(self) -> None:
        """Drain the admission queue into batched pool dispatches.

        Greedy, latency-free batching: whatever is ready right now (up
        to ``batch_max``) ships as one ``execute_batch`` call; a lone
        job never waits for company.  Dispatches are not awaited here —
        the pool's own queue provides depth — so the scheduler keeps
        the pool saturated under thousands of in-flight requests.
        """
        metrics = get_metrics()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            while len(batch) < self.config.batch_max:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    # Shutdown sentinel mid-drain: ship this batch,
                    # then exit on the re-queued sentinel.
                    self._queue.put_nowait(None)
                    break
                batch.append(extra)
            metrics.counter("serve.batches").inc()
            metrics.histogram(
                "serve.batch.size", buckets=(1, 2, 4, 8, 16, 32)
            ).observe(len(batch))
            task = self._loop.create_task(self._dispatch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _dispatch(self, batch: List[Tuple[dict, asyncio.Future]]) -> None:
        """Run one batch on the pool and resolve its waiters.

        Any failure — a job raising, or a dead worker's
        ``BrokenProcessPool``, which a broken pool also raises on every
        later submit — fails this batch's waiters only; the scheduler
        keeps running.
        """
        try:
            payloads = await self._loop.run_in_executor(
                self._pool, execute_batch, [task for task, _f in batch]
            )
        except BaseException as exc:  # noqa: BLE001 — fan out to waiters
            for _task, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        metrics = get_metrics()
        metrics.counter("serve.jobs.executed").inc(len(payloads))
        for (_task, future), payload in zip(batch, payloads):
            if not future.done():
                future.set_result(payload)

    # -- job execution (the single-flight leader's path) ---------------

    async def _execute(self, task: dict, key: str) -> Tuple[dict, str]:
        """Serve-cache lookup, then admission + pool execution.

        Returns ``(payload, source)`` with source ``"hit"`` (cache) or
        ``"computed"`` (pool).  Only single-flight leaders run this, so
        under a thundering herd the cache is probed once and the
        pipeline executes once.
        """
        cache = get_cache("serve")
        if cache is not None:
            hit, payload = cache.get(key)
            if hit:
                return payload, "hit"
        if self._pending >= self.config.queue_depth:
            get_metrics().counter(
                "serve.rejections", labels={"reason": "queue"}
            ).inc()
            raise BusyError(
                f"admission queue full ({self.config.queue_depth} pending)"
            )
        self._pending += 1
        get_metrics().gauge("serve.queue.depth").set(self._pending)
        future = self._loop.create_future()
        self._queue.put_nowait((task, future))
        try:
            payload = await future
        finally:
            self._pending -= 1
            get_metrics().gauge("serve.queue.depth").set(self._pending)
        if cache is not None and "error" not in payload:
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
                if not request.keep_alive:
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
                max_steps=body.get("max_steps", DEFAULT_MAX_STEPS),
            )
        except JobValidationError as exc:
            raise HttpError(400, str(exc)) from exc
        wait = self._quota.try_acquire(tenant)
        if wait > 0:
            get_metrics().counter(
                "serve.rejections", labels={"reason": "quota"}
            ).inc()
            self._record_reject(request.path, "quota", tenant=tenant)
            raise HttpError(
                429,
                f"tenant {tenant!r} over quota",
                {"Retry-After": self._quota.retry_after_header(wait)},
            )
        key = job_key(task)
        labels = {"tenant": tenant}
        if request_id is not None:
            labels["request"] = str(request_id)

        self._requests_inflight += 1
        metrics = get_metrics()
        metrics.gauge("serve.inflight").set(self._requests_inflight)
        started = time.perf_counter()
        status = 200
        role = "leader"
        try:
            with TelemetryContext(labels):
                try:
                    (payload, source), sf_role = await self._singleflight.run(
                        key, lambda: self._execute(task, key)
                    )
                except BusyError as exc:
                    self._record_reject(request.path, "queue", tenant=tenant)
                    raise HttpError(
                        429,
                        exc.detail,
                        {
                            "Retry-After": self._quota.retry_after_header(
                                exc.retry_after
                            )
                        },
                    ) from exc
                role = (
                    FOLLOWER
                    if sf_role == FOLLOWER
                    else ("cache-hit" if source == "hit" else "leader")
                )
                if "error" in payload:
                    status = 500
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
            metrics.gauge("serve.inflight").set(self._requests_inflight)
        headers = {"X-Singleflight": role, "X-Content-Key": key}
        return json_response(
            status, payload, headers, keep_alive=request.keep_alive
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
                    "jobs": self.config.jobs,
                    "uptime_seconds": round(time.time() - self._started, 3),
                },
                keep_alive=request.keep_alive,
            )
        if request.path == "/stats":
            return json_response(
                200,
                {
                    "windows": self._windows.snapshot() if self._windows else {},
                    "in_flight": self._requests_inflight,
                    "queued": self._pending,
                    "singleflight": {
                        "leaders": self._singleflight.leaders,
                        "followers": self._singleflight.followers,
                        "in_flight": len(self._singleflight),
                    },
                    "tenants": self._quota.tenants(),
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
    with serving_pool(config) as pool:
        asyncio.run(
            _serve_async(config, pool, install_signals=True, announce=announce)
        )
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
    SIGTERM would, and exiting shuts the pool down.
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
            self._pool.shutdown(wait=False, cancel_futures=True)
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
            self._pool.shutdown(wait=True)
        return False

    @property
    def server(self) -> Optional[ProtectionServer]:
        return self._server
