"""Block-compiled execution engine: predecoded, specialized superblocks.

The step engine pays per instruction for a decode-cache probe, a
mnemonic dispatch and a chain of ``isinstance`` checks over operands.
This module removes all three for *hot* code: straight-line instruction
runs are compiled **once** into a Python function (generated source,
``exec``'d) in which every operand access is specialized at compile
time — register numbers become list indexes, immediates become
literals, effective addresses become inline arithmetic, and scalar
loads/stores go straight to the flat-segment buffer
(:class:`repro.emu.memory.FlatSegment`) without a method call.
Instruction shapes outside the specializer's templates fall back to the
shared semantic handlers in :mod:`repro.emu.dispatch`, pre-bound per
instruction, so both engines execute identical semantics by
construction.

Tiering: compiling costs about as much as running a block a few hundred
times, and most blocks run only a handful of times.  The dispatcher
therefore counts cache misses per start address and interprets the
first ``HOT_THRESHOLD - 1`` dispatches with :meth:`Emulator.step`, up to
and including the next control transfer; the dispatch that reaches the
threshold compiles.  Budget, tamper-watch stamps, observers and faults
of cold code all come from ``Emulator.step``, so they are exact.

Superblocks extend through *non-taken* conditional branches (side
exits) and terminate at any other control transfer.  Step and cycle
accounting is batched: the totals are added once per block, and every
early exit (taken jcc, fault, syscall, self-modifying write) charges
the exact prefix the step engine would have charged, so ``RunResult``s
are byte-identical between engines.

Self-loops: a block whose final ``jmp rel`` targets its own
start iterates inside its generated function, and an iteration costs
only its own instructions.  The registers the loop touches live in
locals (``_R<code>``): read on entry, written back to ``cpu.regs`` by
the loop's ``finally`` however it leaves, and around each generic
handler, which works on ``cpu.regs``.  The step budget (or ``advance``
target) becomes a count of whole iterations, computed on entry; steps
and cycles are charged, the hit counters derived and the observer told
once per exit.  Only a loop whose body can store — an inline store, a
push, or any generic handler — re-checks its validity by the two tiers
below after each iteration; any other cannot invalidate itself, and
the dispatcher's check at entry covers it.  The dispatcher never
enters a block at its ``stop`` address, so re-entering the same start
never reaches it either.

Each inline memory access in a self-loop keeps the segment it last hit
in locals (``_gb<i>``, ``_gl<i>``, ``_gd<i>``: base, largest offset the
access fits at, buffer), so its fast path is one range compare; a miss
takes the page lookup and refills them (see ``_site_first``).  A store
site keeps only a segment that holds no code, so each store to code
still bumps page versions and checks the loop's own bytes.  The locals are
valid for one loop entry: the page -> segment table changes only in
``Memory.map``, and ``holds_code`` only when code is decoded; neither
happens inside a loop, whose block is compiled and whose generic
handlers never map or decode.  Straight blocks keep the plain lookup:
a site there runs once per block execution.

Eip: ``cpu.eip`` is stored only where execution leaves the generated
code — a side exit, the block end, a self-loop's exit to the
dispatcher (its back edge stores nothing), a self-modifying-store
abort, before a generic handler, and in the ``except BME`` clause of
each inline access, which the ``except BaseException`` unwind relies
on to charge the faulting prefix.

Deferred flags: an inlined flag writer stores no flags.  It binds its
result (and the operands CF or OF need) to locals named by its index,
and the specializer records each flag's expression over them; in-block
readers — jcc conditions, ``adc``/``sbb`` carry-in — use those
expressions.  ``cpu.cf/of/zf/sf`` receive the pending flags only where
execution leaves the generated code: a taken side exit, the block end,
a self-loop's return to the dispatcher, a self-modifying-store abort,
just before a generic handler, and in the ``except BME`` clause of each
inline load and store, so a fault sees exact flags without a store on
the path that does not fault.  Going round a self-loop again stores
only the flags the loop head can observe.  A backward liveness pass
(side exits, instructions that can fault and the block end read every
flag) tells which writers must bind their locals at all: one whose
flags are all overwritten unobserved is a single expression.

Coherence model (what keys a block):

* **Entry check** — a block records the write-counter version of each
  page its bytes span.  ``Memory`` bumps those counters on stores to
  code-bearing segments, on Wurster code-view patches (:meth:`~repro.
  emu.memory.Memory.patch_code_view`) and on their removal, so
  tampering — through either the data or the instruction view —
  invalidates affected superblocks before their next execution.  Tier
  one compares the global ``write_epoch`` alone; tier two re-probes the
  block's page versions and restamps.
* **In-block check** — a store that lands inside the block's own byte
  range aborts the block *after* the store, exactly where the step
  engine would first re-decode modified bytes.  Generic (non-inlined)
  stores compare page versions instead, which is conservative but never
  wrong.

Blocks also end where the image's symbol lookup changes, so every
instruction of a block belongs to the same function.  That is what
lets the block observer (see :mod:`repro.emu.emulator`) attribute a
whole block to one function: the generated code calls it once per
executed block with the exact count of instructions that ran, and a
self-loop once per exit with the count of its completed iterations
(then once more for a partial last one).
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..telemetry.context import get_recorder
from ..x86.instruction import CONDITIONAL_JUMPS, CONTROL_FLOW
from ..x86.operands import Imm, Mem, Rel
from ..x86.registers import Register
from .cpu import MASK32
from .dispatch import DISPATCH, RAS_DEPTH, RET_MISPREDICT_PENALTY, cost_of
from .errors import BadFetch, BadMemoryAccess, EmulationError
from .memory import _U16, _U32

#: Upper bounds per superblock; 2048 bytes <= half a page, so a block
#: spans at most two pages and validity is two dict probes.
MAX_BLOCK_INSNS = 64
MAX_BLOCK_BYTES = 2048

#: Dispatches of one start address before it is compiled; the ones
#: before run interpreted by ``Emulator.step``.
HOT_THRESHOLD = 16

#: Per-generation bound of the block cache (two generations resident).
BLOCK_CACHE_GENERATION = 4096

#: Mnemonics that always terminate a superblock.  Conditional jumps
#: become side exits instead; anything unknown also terminates (its
#: fault must be the last thing the block does).
_TERMINATORS = CONTROL_FLOW - CONDITIONAL_JUMPS

#: Condition-code suffix -> inline Python expression over the four
#: flags, each a ``{cf}``-style placeholder for the flag's current
#: expression (``cpu.cf``, or a pending writer's; see ``_flag_reads``).
#: Mirrors :meth:`repro.emu.cpu.CPUState.condition` exactly (including
#: the unmodelled parity flag).
_CC_EXPR = {
    "o": "{of}", "no": "not {of}",
    "b": "{cf}", "ae": "not {cf}",
    "e": "{zf}", "ne": "not {zf}",
    "be": "({cf} or {zf})", "a": "not ({cf} or {zf})",
    "s": "{sf}", "ns": "not {sf}",
    "p": "False", "np": "True",
    "l": "{sf} != {of}", "ge": "{sf} == {of}",
    "le": "({zf} or {sf} != {of})",
    "g": "(not {zf} and {sf} == {of})",
}

_LOGIC_OPS = {"and": "&", "or": "|", "xor": "^"}

#: Condition-flag bits for the liveness pass.
CF, OF, ZF, SF = 1, 2, 4, 8
ALL_FLAGS = CF | OF | ZF | SF

#: Each flag bit and its ``CPUState`` attribute.
_FLAG_NAMES = ((CF, "cf"), (OF, "of"), (ZF, "zf"), (SF, "sf"))

#: Shared globals for every generated block function.
_SHARED_NS = {
    "M": MASK32,
    "BME": BadMemoryAccess,
    "RMP": RET_MISPREDICT_PENALTY,
    "RASD": RAS_DEPTH,
    "_U32U": _U32.unpack_from,
    "_U32P": _U32.pack_into,
    "_U16U": _U16.unpack_from,
}


def _unimplemented(emu, insn):
    raise EmulationError(
        f"unimplemented mnemonic {insn.mnemonic!r}", eip=emu.cpu.eip
    )


def _is_r32(op) -> bool:
    return isinstance(op, Register) and op.width == 32


def _is_m32(op) -> bool:
    return (
        isinstance(op, Mem)
        and op.width == 32
        and (op.base is None or op.base.width == 32)
        and (op.index is None or op.index.width == 32)
    )


def _mem_regs_ok(op: Mem) -> bool:
    return (op.base is None or op.base.width == 32) and (
        op.index is None or op.index.width == 32
    )


def _is_alu_src(op) -> bool:
    """A source the ALU templates inline without touching memory."""
    return _is_r32(op) or isinstance(op, Imm)


def _flag_effect(insn):
    """``(read, written)`` flag masks of ``insn`` as the block runs it.

    Only shapes that the specializer inlines *and* that cannot fault
    are precise; everything else — memory operands, generic handlers,
    control transfers — reads every flag, so every flag that execution
    can leave the block with still has its writer's expression bound.
    """
    m = insn.mnemonic
    ops = insn.operands
    if len(ops) == 2 and _is_r32(ops[0]) and _is_alu_src(ops[1]):
        if m in ("add", "sub", "cmp", "test") or m in _LOGIC_OPS:
            return 0, ALL_FLAGS
        if m in ("adc", "sbb"):
            return CF, ALL_FLAGS
        if m == "mov":
            return 0, 0
        if m in ("shl", "shr", "sar") and isinstance(ops[1], Imm):
            return 0, (CF | ZF | SF) if ops[1].value & 0x1F else 0
    if len(ops) == 1 and _is_r32(ops[0]):
        if m in ("inc", "dec"):
            return 0, OF | ZF | SF
        if m == "neg":
            return 0, ALL_FLAGS
        if m == "not":
            return 0, 0
    if (
        m in ("movzx", "movsx")
        and _is_r32(ops[0])
        and isinstance(ops[1], Register)
        and ops[1].width in (8, 16)
    ):
        return 0, 0
    if (
        m == "lea"
        and _is_r32(ops[0])
        and isinstance(ops[1], Mem)
        and _mem_regs_ok(ops[1])
    ):
        return 0, 0
    if m in ("cdq", "nop") and not ops:
        return 0, 0
    return ALL_FLAGS, 0


def _live_flags(insns):
    """Flags live after each instruction of a block, and at its start
    (backward pass).

    The block end reads every flag; each instruction kills the flags it
    writes and revives the ones it reads.  The flags live at the start
    are the ones a self-loop's next iteration can observe before it
    writes them.
    """
    live = ALL_FLAGS
    out = [0] * len(insns)
    for i in range(len(insns) - 1, -1, -1):
        out[i] = live
        read, written = _flag_effect(insns[i])
        live = (live & ~written) | read
    return out, live


def _flag_reads(pending) -> dict:
    """``_CC_EXPR`` placeholder -> the flag's current expression: its
    pending writer's, else the ``cpu`` attribute."""
    return {
        name: f"({pending[bit]})" if bit in pending else f"cpu.{name}"
        for bit, name in _FLAG_NAMES
    }


def _flag_stores(pending, mask: int = ALL_FLAGS) -> list:
    """Lines that write the pending flags in ``mask`` to ``cpu``."""
    return [
        f"cpu.{name} = {pending[bit]}"
        for bit, name in _FLAG_NAMES
        if mask & bit and bit in pending
    ]


def _imm32(op) -> int:
    """The value :meth:`Emulator._read_operand` yields for ``op`` at 32 bits."""
    if op.width < 32:
        return op.signed & MASK32
    return op.value


def _ea_expr(op: Mem, reg) -> str:
    """Inline effective-address expression (masked), or a constant.

    A lone base register is used as is: registers hold 32-bit values.
    """
    if op.base is not None and op.index is None and not op.disp:
        return reg(op.base.code)
    parts = []
    if op.base is not None:
        parts.append(reg(op.base.code))
    if op.index is not None:
        scale = f" * {op.scale}" if op.scale != 1 else ""
        parts.append(f"{reg(op.index.code)}{scale}")
    if not parts:
        return str(op.disp & MASK32)
    expr = " + ".join(parts)
    if op.disp:
        expr = f"{expr} + {op.disp}"
    return f"({expr}) & M"


def _reg_read_expr(op: Register, reg) -> Optional[str]:
    """Inline expression for reading a register of any width."""
    if op.width == 32:
        return reg(op.code)
    if op.width == 16:
        return f"({reg(op.code)} & 0xFFFF)"
    if op.code < 4:  # al/cl/dl/bl
        return f"({reg(op.code)} & 0xFF)"
    return f"(({reg(op.code - 4)} >> 8) & 0xFF)"  # ah/ch/dh/bh


def _charge(count, cum, loops: bool) -> list:
    """Lines that charge the block's first ``count`` instructions (``cum``
    cycles; both ints or expressions) and report them to the observer;
    a self-loop records the partial iteration in ``_p`` and leaves the
    charge and the report to its ``finally``."""
    if loops:
        return [f"_p = {count}"]
    return [
        f"emu.steps += {count}",
        f"emu.cycles += {cum}",
        "if obs is not None:",
        f"    obs(b, {count}, 1)",
    ]


class _Regs:
    """Names the templates give register ``code``: ``regs[code]`` in a
    straight block; in a self-loop the local ``_R<code>``, recording
    which registers the loop keeps in locals."""

    def __init__(self, loop: bool):
        self.loop = loop
        #: register codes a self-loop reads into locals on entry
        self.used = set()
        #: indexes of the body lines that call a generic handler
        self.calls = []
        #: instruction indexes of a self-loop's inline memory accesses,
        #: each keeping its last segment in locals (``_site_first``)
        self.sites = []

    def __call__(self, code: int) -> str:
        if not self.loop:
            return f"regs[{code}]"
        self.used.add(code)
        return f"_R{code}"


class CompiledBlock:
    """One compiled superblock and its validity stamp."""

    __slots__ = (
        "start", "end", "n", "fn", "p0", "v0", "p1", "v1", "epoch", "insns", "cum",
    )

    compiled = True

    def __init__(self, start, end, fn, pages, epoch, insns, cum):
        self.start = start
        self.end = end
        self.n = len(insns)
        #: ``fn(emu, cpu, mem, engine, block, observer, limit)`` runs the
        #: block (a self-loop: while ``emu.steps`` stays within
        #: ``limit``); truthy on a self-modifying-store abort.
        self.fn = fn
        #: the block's instructions and their cumulative ``cost_of``,
        #: for block observers: a run of ``k`` instructions costs
        #: ``cum[k - 1]`` cycles (ret-mispredict penalties aside).
        self.insns = insns
        self.cum = cum
        (self.p0, self.v0) = pages[0]
        (self.p1, self.v1) = pages[1] if len(pages) > 1 else (-1, 0)
        #: memory.write_epoch at stamp time; equality proves validity
        #: without per-page probes (refreshed on successful re-check).
        self.epoch = epoch

    def __repr__(self) -> str:
        return f"<CompiledBlock {self.start:#x}..{self.end:#x} n={self.n}>"


class BlockEngine:
    """Superblock cache + execution loop bound to one :class:`Emulator`."""

    def __init__(self, emulator):
        # Weak: the emulator owns this engine, and a strong back-reference
        # would keep every finished emulator (stack, caches, compiled
        # blocks) alive until a full garbage collection.
        self._emulator = weakref.ref(emulator)
        self._cache = {}
        self._old = {}
        #: cache misses per start address, while below HOT_THRESHOLD
        self._heat = {}
        # telemetry (recorded at run end by the emulator).  ``hits`` is
        # the total; ``epoch_hits`` is the tier-1 subset validated by the
        # global write-epoch compare alone, ``page_revalidations`` the
        # tier-2 subset that needed the per-page version probes.  Self-
        # loops count their re-entries here exactly as a dispatch would.
        self.compiled = 0
        self.hits = 0
        self.epoch_hits = 0
        self.page_revalidations = 0
        self.invalidated = 0
        self.write_aborts = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self, stop: Optional[int] = None, target: Optional[int] = None
    ) -> None:
        """Execute until ``ExitProgram``/fault, until eip == ``stop``, or
        until ``emulator.steps`` reaches ``target``.

        Blocks that would overshoot the step budget or ``target`` are
        replaced by single steps, and blocks compiled while ``stop`` is
        pending end there, so the emulator stops on precisely the
        instruction the step engine would.  Exceptions propagate
        with step/cycle accounting already exact, so the caller handles
        them exactly as it would the step engine's.
        """
        emu = self._emulator()
        cpu = emu.cpu
        mem = emu.memory
        step = emu.step
        vget = mem._versions.get
        limit = emu.max_steps if target is None else min(emu.max_steps, target)
        cache = self._cache
        old = self._old
        heat = self._heat
        rec = get_recorder()
        obs = emu.observer
        hits = 0
        epoch_hits = 0
        page_revals = 0
        try:
            while True:
                eip = cpu.eip
                if eip == stop or (target is not None and emu.steps >= target):
                    return
                b = cache.get(eip)
                if b is None and old:
                    b = old.get(eip)
                    if b is not None:  # promote the survivor
                        cache[eip] = b
                if b is not None:
                    epoch = mem.write_epoch
                    if b.epoch != epoch:
                        if b.v0 != vget(b.p0, 0) or (
                            b.p1 >= 0 and b.v1 != vget(b.p1, 0)
                        ):
                            self.invalidated += 1
                            if rec.enabled:
                                rec.record(
                                    "block_invalidate",
                                    tier="page",
                                    start=b.start,
                                    end=b.end,
                                )
                            b = None
                        else:
                            b.epoch = epoch
                            hits += 1
                            page_revals += 1
                    else:
                        hits += 1
                        epoch_hits += 1
                if b is None:
                    count = heat.get(eip, 0) + 1
                    if count < HOT_THRESHOLD:
                        # Cold: interpret up to and including the next
                        # control transfer.
                        heat[eip] = count
                        while (
                            step().mnemonic not in CONTROL_FLOW
                            and cpu.eip != stop
                            and (target is None or emu.steps < target)
                        ):
                            pass
                        continue
                    b = self._compile(emu, eip, stop)
                    self.compiled += 1
                    if len(cache) >= BLOCK_CACHE_GENERATION:
                        self._old = old = cache
                        self._cache = cache = {}
                    cache[eip] = b
                if emu.steps + b.n > limit:
                    # Near the budget or target: single-step so the run
                    # stops on exactly the same instruction as the step
                    # engine.
                    step()
                    continue
                watch = emu.tamper_watch
                if (
                    watch is not None
                    and watch.hit_cycles is None
                    and watch.overlaps(b.start, b.end)
                ):
                    # An unhit TamperWatch overlaps this block: single-
                    # step so the stamp comes from Emulator.step's
                    # accounting, identical to the step engine.
                    step()
                    continue
                if b.fn(emu, cpu, mem, self, b, obs, limit):
                    self.write_aborts += 1
                    if rec.enabled:
                        rec.record(
                            "block_invalidate",
                            tier="store",
                            start=b.start,
                            end=b.end,
                        )
        finally:
            self.hits += hits
            self.epoch_hits += epoch_hits
            self.page_revalidations += page_revals

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _compile(self, emu, start: int, stop: Optional[int]) -> CompiledBlock:
        # BadFetch on the first instruction propagates, exactly as the
        # step engine faults before counting the step.  The block ends
        # at ``stop``, so the dispatcher sees eip reach it.
        insns = [emu._fetch_decode(start)]
        addr = start + insns[0].length
        symbol_at = emu.image.symbols.at if emu.image is not None else None
        owner = symbol_at(start) if symbol_at is not None else None
        while (
            insns[-1].mnemonic not in _TERMINATORS
            and insns[-1].mnemonic in DISPATCH
            and len(insns) < MAX_BLOCK_INSNS
        ):
            last = insns[-1]
            if last.mnemonic in CONDITIONAL_JUMPS and not (
                isinstance(last.operands[0], Rel)
                and last.operands[0].target is not None
            ):
                break  # can't side-exit a jcc we can't specialize
            if addr == stop:
                break
            try:
                insn = emu._fetch_decode(addr)
            except BadFetch:
                break  # the *next* block will raise at execution time
            if addr + insn.length - start > MAX_BLOCK_BYTES:
                break
            if symbol_at is not None and symbol_at(addr) is not owner:
                break  # one function per block, for block observers
            insns.append(insn)
            addr += insn.length
        end = addr
        insns = tuple(insns)

        mem = emu.memory
        first_page = start >> 12
        last_page = (end - 1) >> 12
        pages = [(first_page, mem._versions.get(first_page, 0))]
        if last_page != first_page:
            pages.append((last_page, mem._versions.get(last_page, 0)))
        last = insns[-1]
        loops = (
            last.mnemonic == "jmp"
            and isinstance(last.operands[0], Rel)
            and last.operands[0].target is not None
            and last.operands[0].target & MASK32 == start
        )

        fn, cum = self._generate(mem, start, end, insns, pages, loops)
        rec = get_recorder()
        if rec.enabled:
            rec.record("block_compile", start=start, end=end, n=len(insns))
        return CompiledBlock(start, end, fn, pages, mem.write_epoch, insns, cum)

    def _generate(self, mem, start: int, end: int, insns, pages, loops: bool):
        """Emit, compile and exec the block's specialized source.

        Returns the block function and the cumulative cost tuple.
        """
        nexts = []
        cum = []
        total = 0
        a = start
        for insn in insns:
            a += insn.length
            nexts.append(a)
            total += cost_of(insn)
            cum.append(total)

        handlers = []
        body = []
        n = len(insns)
        live, live_in = _live_flags(insns)
        #: flag bit -> expression of its writer, for the flags written
        #: since ``cpu`` last received them (see ``_try_specialize``)
        pending = {}
        reg = _Regs(loops)
        for i, insn in enumerate(insns):
            handlers.append(DISPATCH.get(insn.mnemonic, _unimplemented))
            body.append(f"# {nexts[i] - insn.length:#x}: {insn.text()}")
            self._emit_insn(
                body, i, insn,
                nxt=nexts[i], cum=cum[i],
                start=start, end=end,
                final=(i == n - 1),
                live=live[i],
                pending=pending,
                reg=reg,
            )

        # A self-loop keeps the registers it touches in locals: read on
        # entry, written back once per exit by its ``finally``.  A generic
        # handler works on ``cpu.regs``, so the locals are written back
        # before it and reloaded after it, even when it raises.
        cached = sorted(reg.used)
        spill = [f"regs[{c}] = _R{c}" for c in cached]
        load = [f"_R{c} = regs[{c}]" for c in cached]
        for at in reversed(reg.calls if load else ()):
            body[at:at + 1] = [
                *spill, "try:", "    " + body[at], "finally:",
                *("    " + line for line in load),
            ]

        version_checks = " or ".join(f"_VG({p}, 0) != {v}" for p, v in pages)
        # substitute the placeholder used by generic write-checks
        body = [line.replace("__VERSION_CHECK__", version_checks) for line in body]

        unwind = [
            "except BaseException:",
            "    _eip = cpu.eip",
            "    if _eip in _NS:",  # false only for async interrupts
            "        _i = _NEXTS.index(_eip)",
            *("        " + line for line in _charge("_i + 1", "_CUM[_i]", loops)),
            "    raise",
        ]
        code = ["try:"] + ["    " + line for line in body] + unwind
        leave = _flag_stores(pending)
        if not loops:
            code += leave + _charge(n, total, loops)
        else:
            # Re-enter only where the dispatcher would run this block
            # again: within the budget of ``_m`` whole iterations, and
            # still valid (see run()).  Only a body that can store can
            # invalidate the block; any other relies on the dispatcher's
            # check at entry.  Leaving (``_z``) stores eip, which the
            # back edge does not, and every pending flag; going round
            # again stores only the flags the head can observe.
            leave = [
                "    " + line
                for line in [f"cpu.eip = {start}", *leave, "_z = 1", "return"]
            ]
            again = ["_k += 1", "if _k >= _m:", *leave]
            if reg.calls or any(insn.writes_memory() for insn in insns):
                again += [
                    "if mem.write_epoch != b.epoch:",
                    f"    if {version_checks}:",
                    *("    " + line for line in leave),  # the dispatcher invalidates it
                    "    b.epoch = mem.write_epoch",
                    "    _pr += 1",
                ]
            again += _flag_stores(pending, live_in)
            # Completed iterations (``_k``) and the partial last one
            # (``_p``) are charged and reach the observer once, however
            # the loop ends.  Every completed iteration but one that left
            # was a re-entry: a hit, of the tier-2 kind if it revalidated.
            code = [
                *load,
                *(f"_gb{k}, _gl{k}, _gd{k} = 0, -1, None" for k in reg.sites),
                f"_m = (limit - emu.steps) // {n}",
                "_k = _p = _z = _pr = 0",
                "try:",
                "    while True:",
                *("        " + line for line in code + again),
                "finally:",
                *("    " + line for line in spill),
                f"    emu.steps += {n} * _k + _p",
                f"    emu.cycles += {total} * _k + (_CUM[_p - 1] if _p else 0)",
                "    _h = _k - _z",
                "    be.hits += _h",
                "    be.epoch_hits += _h - _pr",
                "    be.page_revalidations += _pr",
                "    if obs is not None:",
                "        if _k:",
                f"            obs(b, {n}, _k)",
                "        if _p:",
                "            obs(b, _p, 1)",
            ]

        name = f"_block_{start:x}"
        lines = [
            f"def {name}(emu, cpu, mem, be, b, obs, limit):",
            "    regs = cpu.regs",
        ]
        lines.extend("    " + line for line in code)
        source = "\n".join(lines)
        namespace = dict(_SHARED_NS)
        namespace.update(
            _I=insns,
            _H=tuple(handlers),
            _NEXTS=tuple(nexts),
            _NS=frozenset(nexts),
            _CUM=tuple(cum),
            # Per-emulator bindings: the engine is bound to one Memory,
            # whose segment table and version dict are never reassigned.
            _SG=mem._seg_by_page.get,
            _VS=mem._versions,
            _VG=mem._versions.get,
        )
        exec(compile(source, f"<block {start:#x}>", "exec"), namespace)
        return namespace[name], namespace["_CUM"]

    # -- inline memory templates ---------------------------------------
    #
    # These replicate Memory.read_u*/write_u32 without the method call;
    # an access that leaves its segment falls back to the method, which
    # raises the fault.
    #
    # ``site`` (a self-loop's instruction index; None in a straight
    # block) keeps the segment the access last hit in the locals
    # ``_gb<site>`` (base), ``_gl<site>`` (the largest offset the access
    # fits at) and ``_gd<site>`` (buffer), set to a never-matching
    # sentinel on loop entry: the fast path is one range compare, and a
    # miss takes the page lookup, which refills them.

    @staticmethod
    def _site_first(body, addr_var, site, hit, plain):
        """Emit ``plain``, the page-lookup template; with a ``site``,
        as the miss path of the fast path over its segment locals,
        which runs ``hit(buffer)``."""
        if site is None:
            body.extend(plain)
            return
        body.append(f"if 0 <= (_o := {addr_var} - _gb{site}) <= _gl{site}:")
        body.append("    " + hit(f"_gd{site}"))
        body.append("else:")
        body.extend("    " + line for line in plain)

    @staticmethod
    def _refill(site, slack=0):
        """Lines that make the segment ``_g`` the one ``site`` tries first."""
        if site is None:
            return []
        limit = f"_g.limit + {slack}" if slack else "_g.limit"
        return [f"_gb{site} = _g.base", f"_gl{site} = {limit}", f"_gd{site} = _g.data"]

    @classmethod
    def _load(cls, body, addr_var, dest, width=32, site=None):
        """A ``width``-bit load of ``addr_var`` into ``dest``."""
        read, method = {
            32: ("_U32U({d}, {o})[0]", "read_u32"),
            16: ("_U16U({d}, {o})[0]", "read_u16"),
            8: ("{d}[{o}]", "read_u8"),
        }[width]
        plain = [f"_g = _SG({addr_var} >> 12)"]
        if width == 8:  # the page table proves a byte in bounds
            plain.append("if _g is not None:")
            offset = f"{addr_var} - _g.base"
        else:
            plain.append(
                f"if _g is not None and (_o := {addr_var} - _g.base) <= _g.limit:"
            )
            offset = "_o"
        # a refilled limit admits the offsets where a narrower access fits
        plain.extend("    " + line for line in cls._refill(site, 4 - width // 8))
        plain += [
            f"    {dest} = {read.format(d='_g.data', o=offset)}",
            "else:",
            f"    {dest} = mem.{method}({addr_var})",
        ]
        cls._site_first(
            body, addr_var, site, lambda d: f"{dest} = {read.format(d=d, o='_o')}", plain
        )

    @classmethod
    def _store32(cls, body, addr_var, value_expr, own=(), site=None):
        """``own``: lines run after a store to a code-bearing segment,
        the only kind that can hold the block's own bytes.  A ``site``
        caches only a segment that holds no code, so every store to code
        still bumps its page versions and checks ``own``."""
        plain = [
            f"_g = _SG({addr_var} >> 12)",
            f"if _g is not None and (_o := {addr_var} - _g.base) <= _g.limit:",
            f"    _U32P(_g.data, _o, {value_expr})",
            "    if _g.holds_code:",
            "        mem.write_epoch += 1",
            f"        _n = {addr_var} >> 12",
            "        _VS[_n] = _VG(_n, 0) + 1",
            f"        if ({addr_var} + 3) >> 12 != _n:",
            "            _VS[_n + 1] = _VG(_n + 1, 0) + 1",
            *("        " + line for line in own),
        ]
        if site is not None:
            plain.append("    else:")
            plain.extend("        " + line for line in cls._refill(site))
        plain += ["else:", f"    mem.write_u32({addr_var}, {value_expr})"]
        cls._site_first(
            body, addr_var, site, lambda d: f"_U32P({d}, _o, {value_expr})", plain
        )

    # -- per-instruction emission --------------------------------------

    def _emit_insn(
        self, body, i, insn, nxt, cum, start, end, final, live, pending, reg
    ):
        if self._try_specialize(
            body, i, insn, nxt, cum, start, end, final, live, pending, reg
        ):
            return
        # Generic fallback: pre-bound shared handler, which may read and
        # write any flag (and, in a self-loop, any register: see
        # ``_generate``).
        body.extend(_flag_stores(pending))
        pending.clear()
        body.append(f"cpu.eip = {nxt}")
        reg.calls.append(len(body))
        body.append(f"_H[{i}](emu, _I[{i}])")
        if insn.writes_memory() and not final:
            body.append("if __VERSION_CHECK__:")
            body.extend(
                "    " + line for line in _charge(i + 1, cum, reg.loop) + ["return 1"]
            )

    def _try_specialize(
        self, body, i, insn, nxt, cum, start, end, final, live, pending, reg
    ) -> bool:
        """Emit an inlined template for ``insn``; False if it has none.

        Flag writers store no flags: they bind their result (and, where
        CF or OF needs them, their operands) to locals named by ``i``
        and record each flag's expression over them in ``pending``, for
        the flags in ``live`` (those read after ``insn``).  In-block
        readers use those expressions; ``cpu`` receives them only where
        execution leaves the generated code.
        """
        m = insn.mnemonic
        ops = insn.operands

        def set_eip_if_final():
            if final:
                body.append(f"cpu.eip = {nxt}")

        def site():
            """This access's segment locals in a self-loop (see
            ``_site_first``); a straight block runs each access once per
            execution, so it keeps the plain template."""
            if not reg.loop:
                return None
            reg.sites.append(i)
            return i

        def guarded(emit, wrap=False, transfers=False):
            """A faulting access (``emit(sub)``), whose ``except BME``
            clause stores eip and the pending flags before the fault
            propagates: the path that does not fault stores neither.
            ``wrap``: re-raise the fault with this instruction's eip, as
            the step engine's memory operands do (its stack accesses do
            not).  Unless the instruction ``transfers`` control, which
            stores eip anyway, a block ending with it stores eip after
            the access."""
            sub = []
            emit(sub)
            body.append("try:")
            body.extend("    " + line for line in sub)
            body.append("except BME as exc:" if wrap else "except BME:")
            body.append(f"    cpu.eip = {nxt}")
            body.extend("    " + line for line in _flag_stores(pending))
            body.append(
                f"    raise BME(str(exc), eip={nxt}) from exc" if wrap else "    raise"
            )
            if not transfers:
                set_eip_if_final()

        def own_bytes_abort(addr_var):
            """Self-modifying store into this block's own bytes: stop
            after the store, exactly where re-decode would begin."""
            leave = [
                f"cpu.eip = {nxt}",
                *_flag_stores(pending),
                *_charge(i + 1, cum, reg.loop),
            ]
            return [
                f"if {addr_var} < {end} and {addr_var} + 4 > {start}:",
                *("    " + line for line in leave + ["return 1"]),
            ]

        def guarded_load(mem_op, dest):
            """Faulting load with the step engine's BME eip wrap."""
            body.append(f"_a = {_ea_expr(mem_op, reg)}")
            guarded(
                lambda sub: self._load(sub, "_a", dest, mem_op.width, site()),
                wrap=True,
            )

        def guarded_store32(mem_op, value_expr):
            """Faulting dword store + self-modifying-range abort check."""
            body.append(f"_a = {_ea_expr(mem_op, reg)}")
            guarded(
                lambda sub: self._store32(
                    sub, "_a", value_expr, own_bytes_abort("_a"), site()
                ),
                wrap=True,
            )

        def alu_src_expr(op) -> Optional[str]:
            if _is_r32(op):
                return reg(op.code)
            if isinstance(op, Imm):
                return str(_imm32(op))
            return None

        # ---- data movement ------------------------------------------
        if m == "mov":
            dst, src = ops
            if _is_r32(dst):
                if _is_r32(src):
                    body.append(f"{reg(dst.code)} = {reg(src.code)}")
                    set_eip_if_final()
                    return True
                if isinstance(src, Imm):
                    body.append(f"{reg(dst.code)} = {_imm32(src)}")
                    set_eip_if_final()
                    return True
                if _is_m32(src):
                    guarded_load(src, reg(dst.code))
                    return True
                return False
            if _is_m32(dst):
                if _is_r32(src):
                    guarded_store32(dst, reg(src.code))
                    return True
                if isinstance(src, Imm):
                    guarded_store32(dst, str(_imm32(src)))
                    return True
            return False

        if m in ("movzx", "movsx") and _is_r32(ops[0]):
            src = ops[1]
            if isinstance(src, Register) and src.width in (8, 16):
                value = _reg_read_expr(src, reg)
                if m == "movzx":
                    body.append(f"{reg(ops[0].code)} = {value}")
                else:
                    sign = 1 << (src.width - 1)
                    full = 1 << src.width
                    body.append(f"_v = {value}")
                    body.append(
                        f"{reg(ops[0].code)} = (_v - {full}) & M if _v >= {sign} else _v"
                    )
                set_eip_if_final()
                return True
            if (
                isinstance(src, Mem)
                and src.width in (8, 16)
                and _mem_regs_ok(src)
            ):
                guarded_load(src, "_v")
                if m == "movzx":
                    body.append(f"{reg(ops[0].code)} = _v")
                else:
                    sign = 1 << (src.width - 1)
                    full = 1 << src.width
                    body.append(
                        f"{reg(ops[0].code)} = (_v - {full}) & M if _v >= {sign} else _v"
                    )
                return True
            return False

        if m == "lea" and _is_r32(ops[0]) and isinstance(ops[1], Mem):
            if not _mem_regs_ok(ops[1]):
                return False
            body.append(f"{reg(ops[0].code)} = {_ea_expr(ops[1], reg)}")
            set_eip_if_final()
            return True

        # ---- stack --------------------------------------------------
        # Faults propagate unwrapped, like Emulator.push/pop.
        if m == "push" and len(ops) == 1 and (_is_r32(ops[0]) or isinstance(ops[0], Imm)):
            value = (
                reg(ops[0].code) if _is_r32(ops[0]) else str(_imm32(ops[0]))
            )
            body.append(f"_v = {value}")  # read before esp moves (push esp)
            body.append(f"_s = ({reg(4)} - 4) & M")
            body.append(f"{reg(4)} = _s")
            guarded(
                lambda sub: self._store32(sub, "_s", "_v", own_bytes_abort("_s"), site())
            )
            return True

        if m == "pop" and len(ops) == 1 and _is_r32(ops[0]):
            body.append(f"_s = {reg(4)}")
            guarded(lambda sub: self._load(sub, "_s", "_v", site=site()))
            body.append(f"{reg(4)} = (_s + 4) & M")
            body.append(f"{reg(ops[0].code)} = _v")
            return True

        if m == "leave" and not ops:
            body.append(f"_s = {reg(5)}")
            body.append(f"{reg(4)} = _s")  # esp = ebp even if the pop faults
            guarded(lambda sub: self._load(sub, "_s", "_v", site=site()))
            body.append(f"{reg(4)} = (_s + 4) & M")
            body.append(f"{reg(5)} = _v")
            return True

        # ---- control flow (terminators / side exits) ----------------
        if m == "ret" and (not ops or isinstance(ops[0], Imm)):
            extra = 4 + (ops[0].value if ops else 0)
            body.append(f"_s = {reg(4)}")
            guarded(lambda sub: self._load(sub, "_s", "_t"), transfers=True)
            body.append(f"{reg(4)} = (_s + {extra}) & M")
            body.append("cpu.eip = _t")
            body.append("_r = emu._ras")
            body.append("if _r and _r[-1] == _t:")
            body.append("    _r.pop()")
            body.append("else:")
            body.append("    if _r:")
            body.append("        _r.pop()")
            body.append("    emu.ret_mispredicts += 1")
            body.append("    emu.cycles += RMP")
            return True

        if m == "jmp" and isinstance(ops[0], Rel) and ops[0].target is not None:
            if reg.loop and final:
                body.append("pass")  # a self-loop's exits store eip
            else:
                body.append(f"cpu.eip = {ops[0].target & MASK32}")
            return True

        if m == "call" and isinstance(ops[0], Rel) and ops[0].target is not None:
            body.append(f"_s = ({reg(4)} - 4) & M")
            body.append(f"{reg(4)} = _s")
            guarded(lambda sub: self._store32(sub, "_s", str(nxt)), transfers=True)
            body.append("_r = emu._ras")
            body.append("if len(_r) >= RASD:")
            body.append("    del _r[0]")
            body.append(f"_r.append({nxt})")
            body.append(f"cpu.eip = {ops[0].target & MASK32}")
            return True

        if (
            m in CONDITIONAL_JUMPS
            and isinstance(ops[0], Rel)
            and ops[0].target is not None
        ):
            cond = _CC_EXPR[m[1:]].format(**_flag_reads(pending))
            target = ops[0].target & MASK32
            if final:
                body.append(f"cpu.eip = {target} if {cond} else {nxt}")
            else:
                leave = _flag_stores(pending) + _charge(i + 1, cum, reg.loop)
                body.append(f"if {cond}:")  # side exit; else fall through
                body.append(f"    cpu.eip = {target}")
                body.extend("    " + line for line in leave + ["return"])
            return True

        # ---- ALU ----------------------------------------------------
        # A writer with none of its flags live is a single expression.
        r = f"_r{i}"  # the result, and the operands CF/OF need
        a = f"_a{i}"

        def record(written, exprs):
            """Make the ``written`` flags that are live pending with
            their ``exprs``; a dead one is rewritten before anything
            can observe it, so it is dropped."""
            for bit, _ in _FLAG_NAMES:
                if written & bit:
                    if live & bit:
                        pending[bit] = exprs[bit]
                    else:
                        pending.pop(bit, None)

        def zf_sf():
            return {ZF: f"{r} == 0", SF: f"{r} >= 0x80000000"}

        if (
            m in ("add", "adc", "sub", "sbb", "cmp")
            and len(ops) == 2
            and _is_r32(ops[0])
        ):
            src = alu_src_expr(ops[1])
            loaded = src is None
            if loaded:
                if not _is_m32(ops[1]):
                    return False
                src = f"_b{i}"
                guarded_load(ops[1], src)
            d = ops[0].code
            op = "+" if m in ("add", "adc") else "-"
            carry = ""
            if m in ("adc", "sbb"):
                carry = f" {op} {_flag_reads(pending)['cf']}"
            if not live:
                if m != "cmp":
                    body.append(f"{reg(d)} = ({reg(d)} {op} {src}{carry}) & M")
                record(ALL_FLAGS, {})
            elif src == "0" and not carry:
                # x +/- 0 (``cmp ecx, 0`` heads most loops): the value
                # stands, with no carry and no overflow
                body.append(f"{r} = {reg(d)}")
                record(ALL_FLAGS, {CF: "False", OF: "False", **zf_sf()})
            else:
                lhs = reg(d)
                if carry or live & (CF | OF):
                    if _is_r32(ops[1]):
                        # pinned: a later instruction may change it
                        body.append(f"_b{i} = {src}")
                        src = f"_b{i}"
                    body.append(f"{a} = {lhs}")
                    lhs = a
                if carry:
                    body.append(f"_w{i} = {lhs} {op} {src}{carry}")
                    body.append(f"{r} = _w{i} & M")
                    cf = f"_w{i} > M" if op == "+" else f"_w{i} < 0"
                else:
                    body.append(f"{r} = ({lhs} {op} {src}) & M")
                    cf = f"{r} < {a}" if op == "+" else f"{a} < {src}"
                differ = f"~({a} ^ {src})" if op == "+" else f"({a} ^ {src})"
                of = f"bool({differ} & ({a} ^ {r}) & 0x80000000)"
                record(ALL_FLAGS, {CF: cf, OF: of, **zf_sf()})
                if m != "cmp":
                    body.append(f"{reg(d)} = {r}")
            if not loaded:  # else the load stored eip if final
                set_eip_if_final()
            return True

        if (m in _LOGIC_OPS or m == "test") and len(ops) == 2 and _is_r32(ops[0]):
            src = alu_src_expr(ops[1])
            loaded = src is None
            if loaded:
                if not _is_m32(ops[1]):
                    return False
                src = f"_b{i}"
                guarded_load(ops[1], src)
            d = ops[0].code
            op = _LOGIC_OPS.get(m, "&")
            if live:
                body.append(f"{r} = {reg(d)} {op} {src}")
                record(ALL_FLAGS, {CF: "False", OF: "False", **zf_sf()})
                if m != "test":
                    body.append(f"{reg(d)} = {r}")
            else:
                if m != "test":
                    body.append(f"{reg(d)} = {reg(d)} {op} {src}")
                record(ALL_FLAGS, {})
            if not loaded:
                set_eip_if_final()
            return True

        if m in ("inc", "dec") and len(ops) == 1 and _is_r32(ops[0]):
            d = ops[0].code
            op, edge = ("+", "0x80000000") if m == "inc" else ("-", "0x7FFFFFFF")
            written = OF | ZF | SF  # CF preserved, as on hardware
            if live & written:
                body.append(f"{r} = ({reg(d)} {op} 1) & M")
                record(written, {OF: f"{r} == {edge}", **zf_sf()})
                body.append(f"{reg(d)} = {r}")
            else:
                body.append(f"{reg(d)} = ({reg(d)} {op} 1) & M")
                record(written, {})
            set_eip_if_final()
            return True

        if m == "neg" and len(ops) == 1 and _is_r32(ops[0]):
            d = ops[0].code
            if live:
                body.append(f"{a} = {reg(d)}")
                body.append(f"{r} = (-{a}) & M")
                record(ALL_FLAGS, {
                    CF: f"{a} != 0",
                    OF: f"bool({a} & {r} & 0x80000000)",
                    **zf_sf(),
                })
                body.append(f"{reg(d)} = {r}")
            else:
                body.append(f"{reg(d)} = (-{reg(d)}) & M")
                record(ALL_FLAGS, {})
            set_eip_if_final()
            return True

        if m == "not" and len(ops) == 1 and _is_r32(ops[0]):
            d = ops[0].code
            body.append(f"{reg(d)} = ~{reg(d)} & M")  # flags untouched
            set_eip_if_final()
            return True

        if (
            m in ("shl", "shr", "sar")
            and len(ops) == 2
            and _is_r32(ops[0])
            and isinstance(ops[1], Imm)
        ):
            count = ops[1].value & 0x1F
            d = ops[0].code
            if count == 0:
                set_eip_if_final()
                return True  # no flag/register change, like the handler
            v = f"_v{i}"
            if m == "shl":
                res = f"({v} << {count}) & M"
                cf = f"bool(({v} >> {32 - count}) & 1)"
            elif m == "shr":
                res = f"{v} >> {count}"
                cf = f"bool(({v} >> {count - 1}) & 1)"
            else:  # sar (count < 32), over the sign-extended value
                signed = f"({v} ^ 0x80000000) - 0x80000000"
                res = f"({signed} >> {count}) & M"
                cf = f"bool(({signed} >> {count - 1}) & 1)"
            written = CF | ZF | SF
            if live & written:
                body.append(f"{v} = {reg(d)}")
                body.append(f"{r} = {res}")
                record(written, {CF: cf, **zf_sf()})
                body.append(f"{reg(d)} = {r}")
            else:
                body.append(f"{reg(d)} = {res.replace(v, reg(d))}")
                record(written, {})
            set_eip_if_final()
            return True

        if m == "cdq" and not ops:
            body.append(f"{reg(2)} = M if {reg(0)} & 0x80000000 else 0")
            set_eip_if_final()
            return True

        if m == "nop":
            set_eip_if_final()
            return True

        return False
