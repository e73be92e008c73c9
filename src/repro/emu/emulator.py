"""The IA-32 emulator.

Executes binary images with one of two engines sharing a single set
of instruction semantics (:mod:`repro.emu.dispatch`):

* the **step engine** interprets one instruction at a time through the
  decode cache — the reference implementation;
* the **block engine** (:mod:`repro.emu.blocks`, the default) compiles
  hot straight-line instruction runs into cached superblocks and
  executes them without per-instruction dispatch; cold code runs
  through :meth:`Emulator.step`.

Profilers watch either engine through one **block observer**
(:attr:`Emulator.observer`), a callable ``observer(block, count,
times)``: ``times`` executions of ``block`` each ran ``count`` of its
instructions.  A compiled superblock calls it once per execution with
``times = 1``.  A self-loop calls it once when it exits, however it
exits, with its completed iterations (``count = n``, ``times`` their
number), then once with ``times = 1`` for a partial last iteration.
:meth:`Emulator.step` calls it once per instruction with a
:class:`StepBlock` and ``count = times = 1``, so cold code reports one
``StepBlock`` per instruction on both engines.
``count`` is the exact number of the block's instructions that ran
(always at least one): a side exit, a self-modifying-store abort or an
exception raised inside the block — every run ends with ``ExitProgram``
raised in its last block — report the prefix the step engine would
have executed, faulting instruction included.  Every block exposes
``start``, ``n``, ``insns``, ``cum`` (the cumulative ``cost_of`` of
its instructions) and ``compiled``, and lies inside one symbol of the
image, so an observer attributes ``count * times`` instructions and
``cum[count - 1] * times`` cycles to a single function.

ROP chains need no special support: the genuine ``ret`` semantics (pop
eip from the stack) execute them exactly as real hardware would.

The fetch path reads the *instruction view* of memory
(:meth:`repro.emu.memory.Memory.fetch`), while loads/stores use the data
view — this is what makes the Wurster attack expressible.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..binary.image import BinaryImage
from ..x86.decoder import decode
from ..x86.errors import DecodeError
from ..x86.instruction import Instruction
from ..x86.operands import Imm, Mem, Rel
from ..x86.registers import Register
from .cpu import CPUState, MASK32
from .dispatch import (
    CYCLE_COSTS,
    DISPATCH,
    RAS_DEPTH,
    RET_MISPREDICT_PENALTY,
    cost_of,
)
from .errors import (
    BadFetch,
    BadMemoryAccess,
    EmulationError,
    StepLimitExceeded,
)
from .memory import Memory
from .syscalls import ExitProgram, OperatingSystem

#: Return-address sentinel used by ``call_function``; never mapped.
CALL_SENTINEL = 0xDEAD0000

_STACK_TOP = 0x00C0_0000
_STACK_SIZE = 0x4_0000

#: Engine names accepted by :class:`Emulator` and the CLI.
ENGINE_BLOCK = "block"
ENGINE_STEP = "step"

#: name -> one-line description; the single source of truth for which
#: engines exist.  The CLI derives its ``--engine`` choices and help
#: text from this mapping, and :class:`Emulator` validates
#: against it, so a new engine registered here is automatically
#: selectable everywhere.
ENGINE_DESCRIPTIONS = {
    ENGINE_BLOCK: "superblock compiler (default)",
    ENGINE_STEP: "single-instruction reference interpreter",
}
ENGINES = tuple(ENGINE_DESCRIPTIONS)
DEFAULT_ENGINE = ENGINE_BLOCK

#: Default instruction budget of a run (a program's workload run, its
#: §VII-B selection profile); every corpus workload finishes well inside it.
RUN_MAX_STEPS = 10_000_000

#: Per-generation bound of the decode cache; two generations are kept,
#: so at most ~2x this many decoded instructions are resident.
DECODE_CACHE_GENERATION = 1 << 15


class TamperWatch:
    """Cycle-stamps the first fetch that executes tampered bytes.

    The attack harness installs one over the byte ranges a tamper
    modified; the emulator stamps step/cycle counters the first time an
    executed instruction overlaps any watched range — the moment the
    corruption becomes architecturally visible (a gadget dispatching
    through modified bytes).  Both engines stamp identically: the step
    engine checks every instruction, and the block engine single-steps
    through any superblock overlapping an unhit watch, so the stamp
    always comes from :meth:`Emulator.step`'s accounting.

    A watch over ranges no execution reaches simply never fires —
    ``hit`` stays ``False`` (e.g. a tamper of pure data such as
    encrypted chain words).
    """

    __slots__ = ("ranges", "hit_steps", "hit_cycles", "hit_eip")

    def __init__(self, ranges):
        #: normalized, non-empty ``(start, end)`` half-open ranges
        self.ranges = tuple(
            (start, end) for start, end in ranges if end > start
        )
        self.hit_steps: Optional[int] = None
        self.hit_cycles: Optional[int] = None
        self.hit_eip: Optional[int] = None

    @property
    def hit(self) -> bool:
        return self.hit_cycles is not None

    def overlaps(self, start: int, end: int) -> bool:
        return any(s < end and start < e for s, e in self.ranges)


class StepBlock:
    """One instruction executed by :meth:`Emulator.step`, as observers see it.

    Carries the attributes observers read from a compiled superblock
    (:class:`repro.emu.blocks.CompiledBlock`); ``compiled`` tells the
    two apart.
    """

    __slots__ = ("start", "n", "insns", "cum")

    compiled = False

    def __init__(self, eip: int, insn: Instruction):
        self.start = eip
        self.n = 1
        self.insns = (insn,)
        self.cum = (cost_of(insn),)


class RunResult:
    """Outcome of a completed emulation run."""

    __slots__ = ("exit_status", "steps", "cycles", "stdout", "fault")

    def __init__(self, exit_status, steps, cycles, stdout, fault=None):
        self.exit_status = exit_status
        self.steps = steps
        self.cycles = cycles
        self.stdout = stdout
        self.fault = fault

    @property
    def crashed(self) -> bool:
        return self.fault is not None

    def divergence(self, goal: "RunResult") -> Optional[str]:
        """Why this run does not reproduce ``goal``; ``None`` if it does.

        The one behaviour verdict: protection must leave a run equal to
        its baseline, and a tamper is detected when the run differs from
        the attacker's goal.  Names the first field that differs, in
        order: a crash, stdout, the exit status.
        """
        if self.crashed:
            return f"crash: {self.fault}"
        if self.stdout != goal.stdout:
            return "stdout diverged"
        if self.exit_status != goal.exit_status:
            return "exit status diverged"
        return None

    def __repr__(self) -> str:
        if self.crashed:
            return f"<RunResult FAULT {self.fault!r} steps={self.steps}>"
        return (
            f"<RunResult exit={self.exit_status} steps={self.steps} "
            f"cycles={self.cycles}>"
        )


class Emulator:
    """Executes one process image.

    Args:
        image: the program to load; all sections are mapped at their
            virtual addresses.
        os: toy OS instance (fresh one created if omitted).
        max_steps: instruction budget; exceeded → :class:`StepLimitExceeded`.
        engine: one of :data:`ENGINES` (default :data:`DEFAULT_ENGINE`).
    """

    def __init__(
        self,
        image: Optional[BinaryImage] = None,
        os: Optional[OperatingSystem] = None,
        max_steps: int = RUN_MAX_STEPS,
        engine: Optional[str] = None,
    ):
        if engine is None:
            engine = DEFAULT_ENGINE
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.memory = Memory()
        self.cpu = CPUState()
        self.os = os if os is not None else OperatingSystem()
        self.image = image
        self.engine = engine
        self.max_steps = max_steps
        self.steps = 0
        self.cycles = 0
        self.ret_mispredicts = 0
        self._ras = []  # shadow return-address stack (branch predictor)
        #: the block observer both engines call (see the module
        #: docstring): ``None``, the one registered observer, or a
        #: fan-out over several.  Rebuilt by ``add_observer``.
        self.observer: Optional[Callable[[object, int, int], None]] = None
        self._observers = []
        self._step_blocks = {}
        # Two-generation decode cache: hits promote entries from the old
        # generation into the young one; when the young generation fills
        # up, the old one is dropped wholesale.  Bounded memory without
        # the periodic re-decode-everything cliff of a full clear.
        self._decode_cache = {}
        self._decode_cache_old = {}
        self._block_engine = None
        #: optional TamperWatch stamping the first execution of tampered
        #: bytes; ``None`` keeps the hot path to one identity check.
        self.tamper_watch: Optional[TamperWatch] = None
        #: the ``ExitProgram`` or fault that ended an ``advance``, until
        #: ``run`` reports it (and drops it: its traceback holds us)
        self._ended: Optional[Exception] = None

        self.memory.map(_STACK_TOP - _STACK_SIZE, bytes(_STACK_SIZE))
        self.cpu.esp = _STACK_TOP - 64

        if image is not None:
            for section in image.sections:
                self.memory.map(section.vaddr, bytes(section.data))
            self.cpu.eip = image.entry

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------

    @property
    def blocks(self):
        """The lazily-created block engine bound to this emulator."""
        if self._block_engine is None:
            from .blocks import BlockEngine

            self._block_engine = BlockEngine(self)
        return self._block_engine

    def add_observer(self, observer: Callable[[object, int, int], None]) -> None:
        """Register a block observer (see the module docstring)."""
        self._observers.append(observer)
        observers = list(self._observers)
        if len(observers) > 1:
            def fan_out(block, count, times):
                for observer in observers:
                    observer(block, count, times)

            self.observer = fan_out
        else:
            self.observer = observer

    def _step_block(self, eip: int, insn: Instruction) -> StepBlock:
        """The memoized :class:`StepBlock` for ``insn`` at ``eip``."""
        block = self._step_blocks.get(eip)
        if block is None or block.insns[0] is not insn:
            block = self._step_blocks[eip] = StepBlock(eip, insn)
        return block

    def _compiled_engine(self):
        """The compiled-execution engine for this run, or ``None`` for
        the step engine."""
        if self.engine == ENGINE_BLOCK:
            return self.blocks
        return None

    # ------------------------------------------------------------------
    # Operand helpers
    # ------------------------------------------------------------------

    def _effective_address(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.cpu.get(mem.base)
        if mem.index is not None:
            addr += self.cpu.get(mem.index) * mem.scale
        return addr & MASK32

    def _read_operand(self, op, width: int) -> int:
        if isinstance(op, Register):
            return self.cpu.get(op)
        if isinstance(op, Imm):
            if op.width < width:
                return op.signed & ((1 << width) - 1)
            return op.value
        if isinstance(op, Mem):
            addr = self._effective_address(op)
            try:
                if op.width == 8:
                    return self.memory.read_u8(addr)
                if op.width == 16:
                    return self.memory.read_u16(addr)
                return self.memory.read_u32(addr)
            except BadMemoryAccess as exc:
                raise BadMemoryAccess(str(exc), eip=self.cpu.eip) from exc
        raise EmulationError(f"cannot read operand {op!r}", eip=self.cpu.eip)

    def _write_operand(self, op, value: int) -> None:
        if isinstance(op, Register):
            self.cpu.set(op, value)
            return
        if isinstance(op, Mem):
            addr = self._effective_address(op)
            try:
                if op.width == 8:
                    self.memory.write_u8(addr, value)
                elif op.width == 16:
                    self.memory.write_u16(addr, value)
                else:
                    self.memory.write_u32(addr, value)
            except BadMemoryAccess as exc:
                raise BadMemoryAccess(str(exc), eip=self.cpu.eip) from exc
            return
        raise EmulationError(f"cannot write operand {op!r}", eip=self.cpu.eip)

    @staticmethod
    def _width_of(op) -> int:
        if isinstance(op, (Register, Mem, Imm)):
            return op.width
        return 32

    # ------------------------------------------------------------------
    # Stack helpers
    # ------------------------------------------------------------------

    def push(self, value: int) -> None:
        self.cpu.esp = (self.cpu.esp - 4) & MASK32
        self.memory.write_u32(self.cpu.esp, value)

    def pop(self) -> int:
        value = self.memory.read_u32(self.cpu.esp)
        self.cpu.esp = (self.cpu.esp + 4) & MASK32
        return value

    # ------------------------------------------------------------------
    # Fetch/decode
    # ------------------------------------------------------------------

    def _fetch_decode(self, eip: int) -> Instruction:
        # Decode results are cached per address and invalidated via the
        # memory's per-page write counters, so tampering/self-modifying
        # code is still decoded faithfully.
        version = self.memory.page_version(eip)
        cached = self._decode_cache.get(eip)
        if cached is None and self._decode_cache_old:
            cached = self._decode_cache_old.get(eip)
            if cached is not None:  # promote the survivor
                self._decode_cache_store(eip, cached)
        if cached is not None:
            insn, cached_version, end_version = cached
            if cached_version == version and (
                end_version is None
                or end_version == self.memory.page_version(eip + insn.length - 1)
            ):
                return insn

        window = self.memory.fetch_window(eip, 16)
        if not window:
            raise BadFetch(f"fetch from unmapped {eip:#x}", eip=eip)
        try:
            insn = decode(window, 0, address=eip)
        except DecodeError as exc:
            raise BadFetch(
                f"undecodable bytes {window[:8].hex()} at {eip:#x}", eip=eip
            ) from exc
        end_addr = eip + insn.length - 1
        end_version = (
            self.memory.page_version(end_addr) if (end_addr >> 12) != (eip >> 12) else None
        )
        # Claiming marks the segment code-bearing, so its stores bump
        # the versions stamped here from now on.  The fetch window ends
        # with the segment, so the instruction lies inside it.
        self.memory.claim_code(eip)
        self._decode_cache_store(eip, (insn, version, end_version))
        return insn

    def _decode_cache_store(self, eip: int, entry) -> None:
        cache = self._decode_cache
        if len(cache) >= DECODE_CACHE_GENERATION:
            self._decode_cache_old = cache
            cache = self._decode_cache = {}
        cache[eip] = entry

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> Instruction:
        """Execute one instruction; returns it."""
        if self.steps >= self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} steps", eip=self.cpu.eip
            )
        eip = self.cpu.eip
        insn = self._fetch_decode(eip)
        self.steps += 1
        self.cycles += cost_of(insn)
        if self.observer is not None:
            self.observer(self._step_block(eip, insn), 1, 1)
        watch = self.tamper_watch
        if (
            watch is not None
            and watch.hit_cycles is None
            and watch.overlaps(eip, eip + insn.length)
        ):
            watch.hit_steps = self.steps
            watch.hit_cycles = self.cycles
            watch.hit_eip = eip
        self.cpu.eip = (eip + insn.length) & MASK32
        self._execute(insn)
        return insn

    def advance(
        self, stop: Optional[int] = None, steps: Optional[int] = None
    ) -> bool:
        """Execute until eip reaches ``stop``, until ``steps`` more
        instructions have run, or until the program ends; returns
        whether it is still running.

        The exit or fault that ends the program is kept rather than
        raised, so a caller can pause a run here (to tamper with memory
        between two calls, say) and still finish it with :meth:`run`,
        which reports however it ended.  Both engines stop on the same
        instruction: the block engine ends every block it compiles while
        a ``stop`` is pending there, so on a fresh emulator ``stop`` may
        lie anywhere in a function.
        """
        if self._ended is not None:
            return False
        target = None if steps is None else self.steps + steps
        compiled = self._compiled_engine()
        try:
            if compiled is not None:
                compiled.run(stop=stop, target=target)
            elif stop is None and target is None:
                while True:
                    self.step()
            else:
                while self.cpu.eip != stop and (
                    target is None or self.steps < target
                ):
                    self.step()
            return True
        except (ExitProgram, EmulationError) as exc:
            self._ended = exc
            return False

    def run(self) -> RunResult:
        """Run until the program exits (or faults).

        Faults are captured in the result rather than propagated, so the
        attack harness can score "crash" outcomes uniformly.

        Telemetry is recorded only here, at run end — the per-step hot
        path carries no instrumentation, so disabled telemetry costs
        nothing per instruction.  It counts the whole run, including any
        part an :meth:`advance` executed before.
        """
        from ..telemetry import get_metrics, get_tracer

        with get_tracer().span("emulate") as span:
            self.advance()
            fault = self._ended
            if isinstance(fault, EmulationError):
                # The tracebacks of the fault and of the exception it was
                # raised from run through advance's frame back to this
                # one, which holds ``fault``: a cycle that would keep the
                # emulator alive until the cyclic GC ran.
                exc = fault
                while exc is not None:
                    exc.__traceback__ = None
                    exc = exc.__context__
            else:
                fault = None  # a clean exit
            self._ended = None
            metrics = get_metrics()
            metrics.counter("emu.runs").inc()
            metrics.counter("emu.instructions").inc(self.steps)
            metrics.counter("emu.cycles").inc(self.cycles)
            metrics.counter("emu.ret_mispredicts").inc(self.ret_mispredicts)
            if fault is not None:
                metrics.counter(
                    f"emu.faults.{type(fault).__name__}"
                ).inc()
            be = self._block_engine
            if be is not None:
                for counter in ("compiled", "hits", "epoch_hits",
                                "page_revalidations", "invalidated", "write_aborts"):
                    metrics.counter(f"emu.blocks.{counter}").inc(getattr(be, counter))
            span.set_attribute("engine", self.engine)
            span.set_attribute("steps", self.steps)
            span.set_attribute("cycles", self.cycles)
            if fault is not None:
                span.set_attribute("fault", type(fault).__name__)
                span.set_attribute(
                    "fault_eip", fault.eip if fault.eip is not None else None
                )
        return RunResult(
            exit_status=self.os.exit_status,
            steps=self.steps,
            cycles=self.cycles,
            stdout=bytes(self.os.stdout),
            fault=fault,
        )

    def call_function(self, vaddr: int, args=(), max_steps: Optional[int] = None):
        """Call a function at ``vaddr`` with cdecl int args; returns eax.

        Raises the exit or fault that ends the program (unlike
        :meth:`run`) so unit tests see precise errors.
        """
        if max_steps is not None:
            self.max_steps = self.steps + max_steps
        for arg in reversed(args):
            self.push(arg & MASK32)
        self.push(CALL_SENTINEL)
        self.cpu.eip = vaddr
        if not self.advance(stop=CALL_SENTINEL):
            ended, self._ended = self._ended, None
            raise ended
        # Caller cleans up arguments, as with cdecl.
        self.cpu.esp = (self.cpu.esp + 4 * len(args)) & MASK32
        return self.cpu.eax

    # ------------------------------------------------------------------
    # Instruction semantics (shared table; see repro.emu.dispatch)
    # ------------------------------------------------------------------

    def _execute(self, insn: Instruction) -> None:
        handler = DISPATCH.get(insn.mnemonic)
        if handler is None:
            raise EmulationError(
                f"unimplemented mnemonic {insn.mnemonic!r}", eip=self.cpu.eip
            )
        handler(self, insn)

    def _predict_return(self, target: int) -> None:
        """Charge the return-predictor penalty on RAS mismatch."""
        if self._ras and self._ras[-1] == target:
            self._ras.pop()
            return
        if self._ras:
            self._ras.pop()
        self.ret_mispredicts += 1
        self.cycles += RET_MISPREDICT_PENALTY

    def _branch_target(self, op) -> int:
        if isinstance(op, Rel):
            # Rel targets were resolved against the decode address, which
            # is the current instruction — eip already points past it.
            return op.target & MASK32
        return self._read_operand(op, 32)


def run_image(
    image: BinaryImage,
    stdin: bytes = b"",
    debugger_attached: bool = False,
    max_steps: int = RUN_MAX_STEPS,
    engine: Optional[str] = None,
) -> RunResult:
    """Convenience: load ``image`` into a fresh emulator and run it."""
    os = OperatingSystem(stdin=stdin, debugger_attached=debugger_attached)
    return Emulator(image, os=os, max_steps=max_steps, engine=engine).run()
