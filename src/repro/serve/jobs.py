"""Job bodies for the serving layer: picklable and pure.

The asyncio front-end never touches the protection pipeline itself; it
ships small task dicts to the worker pool and gets JSON-ready payload
dicts back.  Everything here is module-level so the tasks pickle under
both ``fork`` and ``spawn`` start methods, and everything is a pure
function of the task dict — which is what makes the serve-level cache
and single-flight sound.

The server submits one :func:`execute_job` per pool call.  A job that
fails raises; the exception travels back to the server, which answers
``500`` to that job's waiters and caches nothing.  Verify and
attack-matrix jobs run under :data:`~repro.emu.RUN_MAX_STEPS`, the
budget of the CLI and of ``protect-all``.
"""

from __future__ import annotations

import base64
from typing import Any, Dict

from ..cache import key_for
from ..core import ProtectConfig, STRATEGIES, protect_request
from ..corpus import PROGRAM_NAMES, build_program_cached
from ..pipeline import config_for_program

__all__ = [
    "JOB_KINDS",
    "make_task",
    "job_key",
    "execute_job",
]

JOB_KINDS = ("protect", "verify", "attack-matrix")


class JobValidationError(ValueError):
    """A request named an unknown kind/program/strategy or mistyped a field."""


def make_task(
    kind: str,
    program: str,
    strategy: str = "cleartext",
    seed: int = 0,
    guard_chains: bool = False,
) -> Dict[str, Any]:
    """Validate and canonicalize one job into its task dict."""
    if kind not in JOB_KINDS:
        raise JobValidationError(
            f"unknown job kind {kind!r} (expected one of {', '.join(JOB_KINDS)})"
        )
    if program not in PROGRAM_NAMES:
        raise JobValidationError(
            f"unknown program {program!r} "
            f"(expected one of {', '.join(PROGRAM_NAMES)})"
        )
    if strategy not in STRATEGIES:
        raise JobValidationError(
            f"unknown strategy {strategy!r} "
            f"(expected one of {', '.join(STRATEGIES)})"
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise JobValidationError("seed must be an integer")
    if not isinstance(guard_chains, bool):
        raise JobValidationError("guard_chains must be a boolean")
    return {
        "kind": kind,
        "program": program,
        "strategy": strategy,
        "seed": seed,
        "guard_chains": guard_chains,
    }


def job_key(task: Dict[str, Any]) -> str:
    """Content key for the serve-level response cache + single-flight.

    Keys on the full task by the cache's one rule
    (:func:`~repro.cache.key_for`), which adds the package source
    digest: responses depend on the pipeline's *code* as well as its
    inputs.
    """
    return key_for(
        "serve",
        task["kind"],
        task["program"],
        task["strategy"],
        task["seed"],
        task["guard_chains"],
    )


def _request(task: Dict[str, Any], verify: bool):
    config = config_for_program(
        task["program"],
        ProtectConfig(
            strategy=task["strategy"],
            seed=task["seed"],
            guard_chains=task["guard_chains"],
        ),
    )
    return protect_request(
        build_program_cached(task["program"]), config, verify=verify
    )


def _protect_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    protected = _request(task, verify=False).protected
    artifact = protected.image.canonical_bytes()
    return {
        "kind": "protect",
        "program": task["program"],
        "strategy": task["strategy"],
        "seed": task["seed"],
        "fingerprint": protected.image.fingerprint(),
        "artifact_b64": base64.b64encode(artifact).decode("ascii"),
        "artifact_bytes": len(artifact),
        "chains": len(protected.report.chains),
        "report": protected.report.to_dict(),
    }


def _verify_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    request = _request(task, verify=True)
    baseline, run = request.baseline, request.run
    overhead = request.overhead_percent
    return {
        "kind": "verify",
        "program": task["program"],
        "strategy": task["strategy"],
        "seed": task["seed"],
        "fingerprint": request.protected.image.fingerprint(),
        "behaviour_preserved": request.behaviour_preserved,
        "divergence": request.divergence,
        "baseline": {
            "exit_status": baseline.exit_status,
            "steps": baseline.steps,
            "cycles": baseline.cycles,
        },
        "protected": {
            "exit_status": run.exit_status,
            "steps": run.steps,
            "cycles": run.cycles,
            "crashed": run.crashed,
        },
        "overhead_percent": None if overhead is None else round(overhead, 4),
    }


def _attack_matrix_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    from ..attacks import tamper_chain_gadget

    protected = _request(task, verify=False).protected
    goal = protected.program.run()
    target, static, wurster = tamper_chain_gadget(protected, goal)
    return {
        "kind": "attack-matrix",
        "program": task["program"],
        "strategy": task["strategy"],
        "seed": task["seed"],
        "target": target,
        "all_detected": static.detected and wurster.detected,
        "attacks": {
            "static": static.to_dict(),
            "wurster": wurster.to_dict(),
        },
    }


_EXECUTORS = {
    "protect": _protect_payload,
    "verify": _verify_payload,
    "attack-matrix": _attack_matrix_payload,
}


def execute_job(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task to its JSON-ready payload (raises on failure)."""
    return _EXECUTORS[task["kind"]](task)
