"""Attack evaluation harness.

Applies an attack to a (protected or unprotected) image, runs the
result, and scores the outcome against the pristine behaviour:

* ``detected`` — the tampered program crashed or its observable
  behaviour (stdout/exit status) diverged from what the attacker
  wanted; the tamper response fired.
* ``undetected`` — the attacker's goal state was reached with no
  behavioural damage; the protection failed.

For anti-debugging cracks the attacker's goal is "runs normally even
under a debugger", so the goal reference is the pristine run *without*
a debugger.

Detection latency: every evaluation stamps three points on the cycle
axis — when the tamper landed (``tamper_cycles``; 0 for pre-run static
and Wurster tampers), when the corruption first became architecturally
visible (``corruption_cycles``; the :class:`~repro.emu.TamperWatch`
stamp of the first instruction executed from tampered bytes, ``None``
for data-only tampers), and when the failure became externally
observable (``detection_cycles``; the run's cycle count when detected,
``None`` when the attack succeeds).  The derived
``cycles_to_corruption`` / ``cycles_to_detection`` feed the attack
matrix and the telemetry histograms.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..binary.image import BinaryImage
from ..binary.patch import Patch
from ..emu import Emulator, OperatingSystem, RunResult, TamperWatch
from ..telemetry import get_metrics, get_recorder, get_tracer
from ..telemetry.metrics import DEFAULT_CYCLE_BUCKETS


class AttackOutcome:
    """Result of one attack evaluation."""

    __slots__ = (
        "attack",
        "detected",
        "reason",
        "run",
        "tamper_cycles",
        "corruption_cycles",
        "detection_cycles",
    )

    def __init__(
        self,
        attack: str,
        detected: bool,
        reason: str,
        run: RunResult,
        tamper_cycles: Optional[int] = None,
        corruption_cycles: Optional[int] = None,
        detection_cycles: Optional[int] = None,
    ):
        self.attack = attack
        self.detected = detected
        self.reason = reason
        self.run = run
        #: cycle counter when the tamper was applied (0 = before entry)
        self.tamper_cycles = tamper_cycles
        #: cycle counter at the first execution of tampered bytes
        self.corruption_cycles = corruption_cycles
        #: cycle counter when the failure became externally observable
        self.detection_cycles = detection_cycles

    @property
    def cycles_to_corruption(self) -> Optional[int]:
        """Cycles from tamper to first execution of tampered bytes."""
        if self.corruption_cycles is None or self.tamper_cycles is None:
            return None
        return self.corruption_cycles - self.tamper_cycles

    @property
    def cycles_to_detection(self) -> Optional[int]:
        """Cycles from tamper to externally observable failure."""
        if self.detection_cycles is None or self.tamper_cycles is None:
            return None
        return self.detection_cycles - self.tamper_cycles

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "detected": self.detected,
            "reason": self.reason,
            "tamper_cycles": self.tamper_cycles,
            "corruption_cycles": self.corruption_cycles,
            "detection_cycles": self.detection_cycles,
            "cycles_to_corruption": self.cycles_to_corruption,
            "cycles_to_detection": self.cycles_to_detection,
        }

    def __repr__(self) -> str:
        verdict = "DETECTED" if self.detected else "undetected"
        latency = (
            f" after {self.cycles_to_detection} cycles"
            if self.cycles_to_detection is not None
            else ""
        )
        return f"<AttackOutcome {self.attack}: {verdict}{latency} ({self.reason})>"


def patch_ranges(patches: Iterable[Patch]) -> List[Tuple[int, int]]:
    """Half-open byte ranges the patches modify."""
    return [(p.vaddr, p.vaddr + len(p.new)) for p in patches]


def evaluate_patch_attack(
    image: BinaryImage,
    patches: Iterable[Patch],
    goal: RunResult,
    attack_name: str = "patch",
    debugger_attached: bool = False,
    max_steps: int = 200_000_000,
    engine: Optional[str] = None,
    rule: Optional[str] = None,
) -> AttackOutcome:
    """Apply ``patches`` to a clone of ``image``, run, score vs ``goal``.

    ``goal`` is the behaviour the attacker wants to reach (typically the
    pristine no-debugger run).  The tamper happens before the program
    starts, so ``tamper_cycles`` is 0 and ``cycles_to_detection`` is the
    full time-to-failure.
    """
    patches = list(patches)
    with get_tracer().span(
        "evaluate_attack", attack=attack_name, patches=len(patches)
    ) as span:
        tampered = image.clone()
        for patch in patches:
            patch.apply(tampered)
        os = OperatingSystem(debugger_attached=debugger_attached)
        emulator = Emulator(
            tampered, os=os, max_steps=max_steps, engine=engine
        )
        watch = TamperWatch(patch_ranges(patches))
        emulator.tamper_watch = watch
        run = emulator.run()
        outcome = score_run(
            attack_name,
            run,
            goal,
            tamper_cycles=0,
            corruption_cycles=watch.hit_cycles,
            rule=rule,
        )
        span.set_attribute("detected", outcome.detected)
        span.set_attribute("reason", outcome.reason)
        if outcome.cycles_to_detection is not None:
            span.set_attribute(
                "cycles_to_detection", outcome.cycles_to_detection
            )
        return outcome


def score_run(
    attack_name: str,
    run: RunResult,
    goal: RunResult,
    tamper_cycles: Optional[int] = None,
    corruption_cycles: Optional[int] = None,
    rule: Optional[str] = None,
) -> AttackOutcome:
    """Score a tampered run against the attacker's goal behaviour.

    ``tamper_cycles``/``corruption_cycles`` thread the latency stamps
    through; detection is externally observable at the end of the run
    (a crash stops it there, a stdout/exit divergence is seen then), so
    ``detection_cycles`` is the run's cycle count when detected.
    """
    divergence = run.divergence(goal)
    outcome = AttackOutcome(
        attack_name,
        divergence is not None,
        divergence or "attacker goal reached",
        run,
    )
    outcome.tamper_cycles = tamper_cycles
    outcome.corruption_cycles = corruption_cycles
    if outcome.detected:
        outcome.detection_cycles = run.cycles
    metrics = get_metrics()
    metrics.counter("attacks.evaluated").inc()
    metrics.counter(
        "attacks.detected" if outcome.detected else "attacks.undetected"
    ).inc()
    if metrics.enabled:
        # The aggregate histogram stays unlabeled; per attack x rule
        # cells are labeled series on the same family, so exporters see
        # one family and per-cell sums reconcile against the aggregate.
        cell = (
            {"attack": attack_name, "rule": rule} if rule is not None else None
        )
        ctd = outcome.cycles_to_detection
        if ctd is not None:
            metrics.histogram(
                "attacks.cycles_to_detection", buckets=DEFAULT_CYCLE_BUCKETS
            ).observe(ctd)
            if cell is not None:
                metrics.histogram(
                    "attacks.cycles_to_detection",
                    buckets=DEFAULT_CYCLE_BUCKETS,
                    labels=cell,
                ).observe(ctd)
        ctc = outcome.cycles_to_corruption
        if ctc is not None:
            metrics.histogram(
                "attacks.cycles_to_corruption", buckets=DEFAULT_CYCLE_BUCKETS
            ).observe(ctc)
            if cell is not None:
                metrics.histogram(
                    "attacks.cycles_to_corruption",
                    buckets=DEFAULT_CYCLE_BUCKETS,
                    labels=cell,
                ).observe(ctc)
    recorder = get_recorder()
    if recorder.enabled:
        recorder.record(
            "attack",
            name=attack_name,
            detected=outcome.detected,
            reason=outcome.reason,
            exit_status=run.exit_status,
            steps=run.steps,
            tamper_cycles=outcome.tamper_cycles,
            corruption_cycles=outcome.corruption_cycles,
            detection_cycles=outcome.detection_cycles,
            cycles_to_detection=outcome.cycles_to_detection,
            rule=rule,
        )
    return outcome
