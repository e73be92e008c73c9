"""Shared multiprocessing plumbing for pipeline fan-out.

Both the protect-all runner and the gadget finder's per-section fan-out
need the same things from a worker pool: a start-method choice that
prefers ``fork``, a worker initializer that mirrors the parent's cache
configuration (and silences worker telemetry — tasks ship a captured
payload back instead), and order-preserving task mapping so results
merge deterministically no matter which worker finishes first.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence

__all__ = ["mp_context", "worker_init", "run_tasks"]


def mp_context():
    """The preferred multiprocessing context (``fork`` when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def worker_init(cache_dir: Optional[str], enabled: bool) -> None:
    """Pool initializer: mirror the parent's cache configuration.

    Under the ``spawn`` start method nothing is inherited, so the
    parent's effective cache directory is re-applied explicitly; under
    ``fork`` this simply rebuilds the manager with empty memory tiers
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


def run_tasks(
    func: Callable[[dict], dict],
    tasks: Sequence[dict],
    jobs: int,
) -> List[dict]:
    """Map ``func`` over ``tasks`` on a worker pool, preserving order.

    ``jobs=1`` (or a single task) runs inline in this process — no
    subprocesses, the parent's telemetry and cache see everything.
    Otherwise a pool of ``min(jobs, len(tasks))`` workers is forked with
    :func:`worker_init` mirroring the parent's cache configuration, and
    results come back in input order (``imap`` preserves it).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = list(tasks)
    if jobs == 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    from ..cache import cache_manager

    manager = cache_manager()
    ctx = mp_context()
    with ctx.Pool(
        min(jobs, len(tasks)),
        initializer=worker_init,
        initargs=(manager.cache_dir, manager.enabled),
    ) as pool:
        return list(pool.imap(func, tasks, chunksize=1))
