"""The parallel protection pipeline: ``protect-all`` in library form.

Fans :meth:`Parallax.protect` out across corpus programs on the shared
worker pool (:func:`repro.pipeline.pool.run_tasks`), backed by the
content-addressed cache in :mod:`repro.cache`:

* **worker count** — ``jobs=1`` runs inline (no subprocesses, parent
  tracer sees every span); ``jobs>1`` forks a pool, and a worker that
  dies raises ``BrokenProcessPool`` rather than hanging the run;
* **deterministic ordering** — results come back in input order
  regardless of which worker finishes first, and each protection is
  independent and seeded, so ``jobs=1`` and ``jobs=N`` produce
  byte-identical images;
* **per-worker telemetry** — every task runs under
  :func:`repro.telemetry.capture` (a private, unlabeled scope) and
  ships its samples, spans and events home; the parent adopts each
  payload (:func:`repro.telemetry.adopt`) in input order, in its own
  scope, under a per-program ``pipeline.program`` span, so
  ``--metrics``/``--trace``/``--journal`` output is one registry,
  trace and journal no matter the worker count;
* **caching** — workers share the parent's on-disk cache tier, so a
  warm ``protect-all`` deserializes instead of re-protecting, and a
  second run of the same corpus is nearly free.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import List, Optional, Sequence

from ..cache import cache_manager, configure_cache
from ..core.config import ProtectConfig
from ..core.protector import protect_request
from ..corpus import PROGRAM_NAMES, build_program_cached
from ..telemetry import adopt, capture, get_metrics, get_recorder, get_tracer
from .pool import run_tasks

__all__ = [
    "PipelineResult",
    "config_for_program",
    "protect_all",
]


class PipelineResult:
    """One program's outcome from a pipeline run."""

    __slots__ = (
        "name",
        "image",
        "report",
        "elapsed",
        "cache_hit",
        "worker_pid",
        "behaviour_preserved",
    )

    def __init__(
        self,
        name: str,
        image,
        report,
        elapsed: float,
        cache_hit: bool,
        worker_pid: int,
        behaviour_preserved: Optional[bool] = None,
    ):
        self.name = name
        self.image = image
        self.report = report
        self.elapsed = elapsed
        self.cache_hit = cache_hit
        self.worker_pid = worker_pid
        #: None unless the pipeline was asked to verify behaviour.
        self.behaviour_preserved = behaviour_preserved

    def to_dict(self) -> dict:
        payload = {
            "program": self.name,
            "elapsed_s": round(self.elapsed, 6),
            "cache_hit": self.cache_hit,
            "worker_pid": self.worker_pid,
            "report": self.report.to_dict(),
        }
        if self.behaviour_preserved is not None:
            payload["behaviour_preserved"] = self.behaviour_preserved
        return payload

    def __repr__(self) -> str:
        hit = "hit" if self.cache_hit else "miss"
        return (
            f"<PipelineResult {self.name} {self.elapsed:.3f}s "
            f"cache-{hit} pid={self.worker_pid}>"
        )


def config_for_program(name: str, base: Optional[ProtectConfig]) -> ProtectConfig:
    """Specialize ``base`` for one corpus program.

    When the base config names no verification functions, the
    program's ``digest_*`` helper is used — the function the §VII-B
    selection algorithm converges on for every corpus program, without
    paying for a profiling run per program.
    """
    base = base or ProtectConfig()
    verification = base.verification_functions
    if verification is None:
        verification = [f"digest_{name}"]
    return ProtectConfig(
        strategy=base.strategy,
        verification_functions=list(verification),
        protect_addresses=base.protect_addresses,
        n_variants=base.n_variants,
        seed=base.seed,
        time_threshold=base.time_threshold,
        guard_chains=base.guard_chains,
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _run_task(task: dict) -> dict:
    """Build, protect (and optionally verify) one program.

    Runs under :func:`~repro.telemetry.capture`, collecting metrics,
    spans and events only when the parent has them enabled
    (``task["metrics"]``, ``task["tracing"]``, ``task["recording"]``).
    Returns only picklable data, telemetry payload included.  The
    cache verdict comes from the protect call itself.  Used both by
    pool workers and the ``jobs=1`` inline path, which is why the
    captured scope is unlabeled even inline: the *parent* labels the
    payload exactly once, at adoption.
    """
    name = task["name"]

    def body():
        start = time.perf_counter()
        request = protect_request(
            build_program_cached(name),
            task["config"],
            verify=task["verify"],
            use_cache=task["use_cache"],
        )
        return request, time.perf_counter() - start

    (request, elapsed), telemetry = capture(
        body,
        metrics=task["metrics"],
        tracing=task["tracing"],
        recording=task["recording"],
    )
    protected = request.protected
    return {
        "name": name,
        "blob": pickle.dumps(
            (protected.image, protected.report), protocol=pickle.HIGHEST_PROTOCOL
        ),
        "elapsed": elapsed,
        "cache_hit": protected.cached,
        "behaviour_preserved": request.behaviour_preserved,
        "telemetry": telemetry,
        "pid": os.getpid(),
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def protect_all(
    names: Optional[Sequence[str]] = None,
    config: Optional[ProtectConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    verify: bool = False,
) -> List[PipelineResult]:
    """Protect every named corpus program, optionally in parallel.

    Args:
        names: program names; defaults to the full six-program corpus.
        config: base :class:`ProtectConfig`, specialized per program by
            :func:`config_for_program`.
        jobs: worker processes; ``1`` runs inline.
        cache_dir: enable the on-disk cache tier at this path for this
            run (and its workers).  ``None`` keeps the process-wide
            cache configuration as-is.
        use_cache: ``False`` forces full recomputation everywhere (the
            differential tests' control arm).
        verify: also run the original and protected images (each task
            is then one verified :func:`~repro.core.protect_request`,
            both runs under its default step budget) and record
            behavioural equality per program (slow: full emulation).

    Each result's ``elapsed`` times its task body: build plus protect,
    plus both runs under ``verify``.

    Returns:
        :class:`PipelineResult` list in input order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    names = list(names if names is not None else PROGRAM_NAMES)
    manager = cache_manager()
    if cache_dir is not None and (
        manager.cache_dir != cache_dir or not manager.enabled
    ):
        manager = configure_cache(cache_dir=cache_dir)
    effective_cache_dir = manager.cache_dir

    tasks = [
        {
            "name": name,
            "config": config_for_program(name, config),
            "use_cache": use_cache,
            "verify": verify,
            "metrics": get_metrics().enabled,
            "tracing": get_tracer().enabled,
            "recording": get_recorder().enabled,
        }
        for name in names
    ]

    metrics = get_metrics()
    tracer = get_tracer()
    recorder = get_recorder()
    results: List[PipelineResult] = []

    def _merge(entry: dict) -> None:
        """Adopt one finished task into the parent's telemetry.

        Called per result *as it arrives* (not after the whole batch),
        so the journal and the active labeled context see pool progress
        as each task merges.
        The task's payload is adopted into the active scope — under a
        TelemetryContext its labels are applied exactly once, here —
        with its spans under this program's span, laned per worker.
        """
        image, report = pickle.loads(entry["blob"])
        with tracer.span(
            "pipeline.program",
            program=entry["name"],
            worker_pid=entry["pid"],
            cache_hit=entry["cache_hit"],
        ) as span:
            span.set_attribute("elapsed_s", entry["elapsed"])
            adopt(entry["telemetry"], pid=entry["pid"], parent_span=span)
        if recorder.enabled:
            recorder.record(
                "pipeline.task",
                program=entry["name"],
                seconds=entry["elapsed"],
                cache_hit=entry["cache_hit"],
                pid=entry["pid"],
            )
        results.append(
            PipelineResult(
                entry["name"],
                image,
                report,
                entry["elapsed"],
                entry["cache_hit"],
                entry["pid"],
                entry["behaviour_preserved"],
            )
        )

    with tracer.span(
        "protect_all", programs=len(tasks), jobs=jobs,
        cache_dir=effective_cache_dir or "",
    ):
        for entry in run_tasks(_run_task, tasks, jobs):
            _merge(entry)

        metrics.counter("pipeline.programs").inc(len(results))
        metrics.counter("pipeline.cache_hits").inc(
            sum(1 for r in results if r.cache_hit)
        )
        metrics.gauge("pipeline.jobs").set(jobs)
    return results
