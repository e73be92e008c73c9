"""Parallel, content-addressed-cached protection pipeline.

Public surface::

    from repro.pipeline import protect_all

    results = protect_all(jobs=4, cache_dir=".parallax-cache")
    for r in results:
        print(r.name, r.elapsed, r.cache_hit)

Cache configuration lives in :mod:`repro.cache` and is re-exported
here for convenience; the CLI's ``protect-all`` command is a thin
wrapper over :func:`protect_all`.
"""

from ..cache import (
    cache_manager,
    cache_session,
    configure_cache,
    content_key,
    get_cache,
    reset_caches,
)
from .pool import mp_context, run_tasks, worker_init
from .runner import PipelineResult, config_for_program, protect_all

__all__ = [
    "PipelineResult",
    "config_for_program",
    "protect_all",
    "mp_context",
    "run_tasks",
    "worker_init",
    "cache_manager",
    "cache_session",
    "configure_cache",
    "content_key",
    "get_cache",
    "reset_caches",
]
