"""The one worker pool: every worker process in the package starts here.

The protect-all runner and the ``repro serve`` daemon both get their
workers from :func:`worker_pool`, a
:class:`~concurrent.futures.ProcessPoolExecutor` that

* prefers the ``fork`` start method;
* runs :func:`worker_init` in each worker, mirroring the parent's cache
  configuration and silencing worker telemetry (tasks ship a captured
  payload back instead);
* has started every worker by the time it returns, so no fork happens
  after the caller spawns threads (serve's event loop, for one).

A worker that dies mid-task (OOM killer, SIGKILL) breaks the pool: every
pending result raises
:class:`~concurrent.futures.process.BrokenProcessPool` instead of
waiting forever.  :func:`run_tasks` maps a function over tasks on such a
pool and yields results in input order, so they merge deterministically
no matter which worker finishes first.

Shutting a pool down normally waits for its running jobs
(``with worker_pool(n) as pool:`` does).  :func:`stop_pool` is the one
way to stop a pool without waiting: the serve daemon calls it after its
bounded drain, so a long job cannot hold up shutdown.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Optional, Sequence

__all__ = ["mp_context", "worker_init", "worker_pool", "stop_pool", "run_tasks"]


def mp_context():
    """The preferred multiprocessing context (``fork`` when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def worker_init(cache_dir: Optional[str], enabled: bool) -> None:
    """Pool initializer: mirror the parent's cache configuration.

    Under the ``spawn`` start method nothing is inherited, so the
    parent's effective cache directory is re-applied explicitly; under
    ``fork`` this simply rebuilds the manager with an empty memory tier
    (the disk tier is the shared medium between processes).  Worker
    telemetry is disabled: tasks run under
    :func:`repro.telemetry.capture` and ship their payload back to the
    parent, which adopts it in input order.
    """
    from ..cache import configure_cache

    configure_cache(cache_dir=cache_dir, enabled=enabled)
    from .. import telemetry

    telemetry.disable()
    # fork-started workers inherit the parent's ContextVar state; an
    # inherited scope would swallow samples into a forked copy of the
    # parent's child registry that never flushes home.
    telemetry.clear_context()


def worker_pool(jobs: int) -> ProcessPoolExecutor:
    """A started pool of ``jobs`` workers mirroring :func:`cache_manager`.

    The caller owns the pool and shuts it down (``with worker_pool(n)
    as pool:`` does).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    from ..cache import cache_manager

    manager = cache_manager()
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=mp_context(),
        initializer=worker_init,
        initargs=(manager.cache_dir, manager.enabled),
    )
    # Workers start lazily on first submit; one round trip per worker
    # starts them all now, from the caller's thread.
    list(pool.map(int, range(jobs)))
    return pool


def stop_pool(pool: ProcessPoolExecutor) -> None:
    """Stop ``pool`` without waiting for its running jobs.

    Pending futures are cancelled; every worker still alive (one running
    a job, or one that has not yet read its shutdown sentinel) is then
    terminated and joined, so no worker outlives the call.  A running
    job's future fails with
    :class:`~concurrent.futures.process.BrokenProcessPool`.  Calling it
    again is a no-op.
    """
    # The executor keeps no public handle on its workers.
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    for worker in workers:
        worker.join()


def run_tasks(
    func: Callable[[dict], dict],
    tasks: Sequence[dict],
    jobs: int,
) -> Iterator[dict]:
    """Yield ``func(task)`` for each task, in input order.

    ``jobs=1`` (or a single task) runs inline in this process — no
    subprocesses, the parent's telemetry and cache see everything.
    Otherwise the tasks run on a :func:`worker_pool` of
    ``min(jobs, len(tasks))`` workers; a worker's death raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = list(tasks)
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            yield func(task)
        return
    with worker_pool(min(jobs, len(tasks))) as pool:
        yield from pool.map(func, tasks)
