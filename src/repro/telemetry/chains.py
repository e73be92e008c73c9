"""Chain-execution tracing: which gadget did the chain die in?

A tampered gadget makes a verification chain malfunction, but the
malfunction (crash, wrong output) surfaces far from its cause.  The
:class:`ChainExecutionTracer` is a block observer of a step-engine
emulator and records every entry into a known chain gadget —
address, mnemonic sequence, esp/eip at entry, and whether the gadget
is overlap-preferred — so a failing run can be walked backwards to the
exact gadget whose bytes were corrupted.

It needs the step engine, whose observer sees each instruction
before it executes.  A block-engine superblock can run through an
aligned gadget address mid-block, so entries would be missed there.
A disabled tracer registers no observer.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Set

from .metrics import _ensure_parent_dir
from .context import get_recorder

__all__ = ["ChainStep", "ChainExecutionTracer", "trace_chain_run"]


class ChainStep:
    """One recorded gadget entry during chain execution."""

    __slots__ = ("seq", "address", "esp", "eip", "preferred", "cycles", "mnemonics")

    def __init__(
        self,
        seq: int,
        address: int,
        esp: int,
        eip: int,
        preferred: bool,
        cycles: Optional[int] = None,
    ):
        self.seq = seq
        self.address = address
        self.esp = esp
        self.eip = eip
        self.preferred = preferred
        #: emulator cycle counter at gadget entry (detection-latency axis)
        self.cycles = cycles
        self.mnemonics: List[str] = []

    def to_dict(self) -> dict:
        return {
            "type": "chain_step",
            "seq": self.seq,
            "gadget": self.address,
            "esp": self.esp,
            "eip": self.eip,
            "preferred": self.preferred,
            "cycles": self.cycles,
            "mnemonics": list(self.mnemonics),
        }

    def __repr__(self) -> str:
        star = "*" if self.preferred else ""
        return (
            f"<ChainStep #{self.seq} @{self.address:#x}{star} "
            f"[{'; '.join(self.mnemonics)}]>"
        )


class ChainExecutionTracer:
    """Records gadget-granular execution of one or more ROP chains.

    Args:
        gadget_addresses: entry addresses of the chain's gadgets (e.g.
            ``ChainRecord.gadget_addresses``).
        preferred: addresses of overlap-preferred gadgets (e.g.
            ``GadgetCatalog.preferred``).
        gadget_spans: optional ``{address: end}`` map; with it, a fault
            eip inside a gadget body (not just at its entry) is
            attributed to that gadget.
        max_steps: recording cap; the newest entries are kept by
            wrapping (the *end* of a dying chain is the interesting
            part).
        enabled: disabled tracers refuse installation and record
            nothing.
    """

    def __init__(
        self,
        gadget_addresses: Iterable[int],
        preferred: Iterable[int] = (),
        gadget_spans: Optional[Dict[int, int]] = None,
        max_steps: int = 100_000,
        enabled: bool = True,
    ):
        self.gadget_set: Set[int] = set(gadget_addresses)
        self.preferred: Set[int] = set(preferred)
        self.gadget_spans = dict(gadget_spans or {})
        self.max_steps = max_steps
        self.enabled = enabled
        self.steps: List[ChainStep] = []
        self.dropped = 0
        self.instructions_seen = 0
        self._current: Optional[ChainStep] = None
        self._seq = 0
        self._emulator = None

    @classmethod
    def for_record(cls, record, preferred: Iterable[int] = (), **kwargs):
        """Build a tracer for one :class:`~repro.core.report.ChainRecord`."""
        return cls(record.gadget_addresses, preferred=preferred, **kwargs)

    # -- observer -------------------------------------------------------

    def install(self, emulator) -> bool:
        """Register as a block observer of a step-engine ``emulator``.

        Returns False without touching the emulator when disabled;
        raises ``ValueError`` for a block-engine emulator.
        """
        if not self.enabled:
            return False
        from ..emu import ENGINE_STEP  # late: avoid import cycle at module load

        if emulator.engine != ENGINE_STEP:
            raise ValueError(
                f"chain tracing needs the {ENGINE_STEP!r} engine, "
                f"not {emulator.engine!r}"
            )
        self._emulator = emulator
        emulator.add_observer(self)
        return True

    def __call__(self, block, count: int, times: int) -> None:
        # The step engine's blocks are single instructions, run once.
        self.on_step(block.start, block.insns[0])

    def on_step(self, eip: int, insn) -> None:
        self.instructions_seen += 1
        if eip in self.gadget_set:
            emulator = self._emulator
            esp = emulator.cpu.esp if emulator is not None else 0
            cycles = emulator.cycles if emulator is not None else None
            step = ChainStep(
                self._seq,
                address=eip,
                esp=esp,
                eip=eip,
                preferred=eip in self.preferred,
                cycles=cycles,
            )
            self._seq += 1
            self._current = step
            if len(self.steps) >= self.max_steps:
                self.steps.pop(0)
                self.dropped += 1
            self.steps.append(step)
            recorder = get_recorder()
            if recorder.enabled:
                recorder.record(
                    "chain_dispatch",
                    gadget=eip,
                    esp=esp,
                    seq=step.seq,
                    preferred=step.preferred,
                )
        if self._current is not None:
            self._current.mnemonics.append(insn.mnemonic)
            if insn.is_return:
                self._current = None

    # -- analysis -------------------------------------------------------

    @property
    def last_step(self) -> Optional[ChainStep]:
        return self.steps[-1] if self.steps else None

    def gadget_containing(self, eip: int) -> Optional[int]:
        """Gadget whose body covers ``eip``, if spans are known."""
        if eip in self.gadget_set:
            return eip
        for address, end in self.gadget_spans.items():
            if address <= eip < end:
                return address
        return None

    def corrupted_gadget(self, fault=None) -> Optional[int]:
        """Best guess at the gadget whose corruption killed the chain.

        A fault eip inside a known gadget wins; otherwise the last
        gadget the chain entered is blamed — by the time execution
        leaves the known gadget set for garbage, the gadget that
        dispatched there is the corrupted one.
        """
        eip = getattr(fault, "eip", None)
        if eip is not None:
            located = self.gadget_containing(eip)
            if located is not None:
                return located
        step = self.last_step
        return step.address if step else None

    def divergence(self, expected: Iterable[int]) -> Optional[int]:
        """Index of the first executed gadget differing from ``expected``
        (None when the executed prefix matches)."""
        expected = list(expected)
        for index, step in enumerate(self.steps):
            if index >= len(expected) or step.address != expected[index]:
                return index
        return None

    def divergence_cycles(self, expected: Iterable[int]) -> Optional[int]:
        """Cycle stamp of the first divergent gadget dispatch.

        This is the earliest point the chain's behaviour observably left
        the expected gadget sequence — the tightest upper bound on when
        tampering corrupted the dispatch.  ``None`` when the executed
        prefix matches ``expected``.
        """
        index = self.divergence(expected)
        if index is None:
            return None
        return self.steps[index].cycles

    def summary(self) -> dict:
        return {
            "type": "chain_trace",
            "gadgets_known": len(self.gadget_set),
            "steps_recorded": len(self.steps),
            "steps_dropped": self.dropped,
            "instructions_seen": self.instructions_seen,
            "preferred_hits": sum(1 for s in self.steps if s.preferred),
            "last_gadget": self.last_step.address if self.last_step else None,
        }

    # -- export ---------------------------------------------------------

    def to_events(self) -> List[dict]:
        events = [step.to_dict() for step in self.steps]
        events.append(self.summary())
        return events

    def write_jsonl(self, path: str) -> None:
        _ensure_parent_dir(path)
        with open(path, "w") as fh:
            for event in self.to_events():
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")

    def __repr__(self) -> str:
        return (
            f"<ChainExecutionTracer {len(self.gadget_set)} gadgets, "
            f"{len(self.steps)} steps>"
        )


def trace_chain_run(
    image,
    record,
    preferred: Iterable[int] = (),
    code_patches: Iterable = (),
    debugger_attached: bool = False,
    max_steps: int = 200_000_000,
):
    """Run ``image`` with a chain tracer attached to ``record``'s gadgets.

    ``code_patches`` are applied to the instruction view only (the
    Wurster attack shape); use pre-patched images for static tampering.
    Returns ``(RunResult, ChainExecutionTracer)``.
    """
    from ..emu import ENGINE_STEP, Emulator, OperatingSystem

    os = OperatingSystem(debugger_attached=debugger_attached)
    emulator = Emulator(image, os=os, max_steps=max_steps, engine=ENGINE_STEP)
    for patch in code_patches:
        emulator.memory.patch_code_view(patch.vaddr, patch.new)
    tracer = ChainExecutionTracer.for_record(record, preferred=preferred)
    tracer.install(emulator)
    result = emulator.run()

    from . import get_metrics  # late: avoid import cycle at module load

    metrics = get_metrics()
    metrics.counter("chains.traced").inc()
    if result.crashed:
        culprit = tracer.corrupted_gadget(result.fault)
        if culprit is not None:
            metrics.counter("chains.corruptions_attributed").inc()
            recorder = get_recorder()
            if recorder.enabled:
                recorder.record(
                    "chain_corruption",
                    gadget=culprit,
                    fault=type(result.fault).__name__,
                    fault_eip=getattr(result.fault, "eip", None),
                    steps_recorded=len(tracer.steps),
                )
    return result, tracer
