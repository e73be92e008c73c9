"""Native backend: compile IR functions to IA-32 machine code.

Produces gcc-flavoured code: frame pointer prologues, callee-saved
registers, cdecl argument passing, ``xor r, r`` for a zero constant
(gcc -O2's idiom) and function starts padded to
:data:`FUNCTION_ALIGN`.  The corpus generator uses this to build the
test binaries; the Parallax pipeline also uses it to compile inserted
runtime-support code (chain decryptors, loader helpers).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..x86.asm import Assembler
from ..x86.operands import Imm, Mem, mem8, mem32
from ..x86.registers import EAX, EBP, EBX, ECX, EDI, EDX, ESI, ESP
from . import ir

#: jcc mnemonic per IR condition.
_CC = {
    "eq": "je",
    "ne": "jne",
    "lt": "jl",
    "le": "jle",
    "gt": "jg",
    "ge": "jge",
    "ult": "jb",
    "uge": "jae",
}

_CALLEE_SAVED = (EBX, ESI, EDI)

#: Byte boundary every function start is padded to.
FUNCTION_ALIGN = 16


class NativeCompiler:
    """Compiles a set of IR functions into one code blob.

    All functions share an :class:`Assembler`; function names are labels,
    so cross-function calls resolve in the final fixup pass.
    ``wide_immediates`` emits group-1 arithmetic with imm32 even for
    small constants (more immediate-rule targets for Fig. 6).
    """

    def __init__(self, base: int = 0x08048000, wide_immediates: bool = False):
        self.asm = Assembler(base=base)
        self.wide_immediates = wide_immediates
        self._function_spans: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def compile_function(self, function: ir.IRFunction) -> None:
        """Append the native code of ``function`` to the blob."""
        function.validate()
        self.asm.align(FUNCTION_ALIGN)
        start = self.asm.offset
        self.asm.label(function.name)
        self._emit_prologue()
        for op in function.body:
            self._emit_op(function, op)
        self._function_spans[function.name] = (start, self.asm.offset)

    def emit_start(self, main: str = "main", argv: Iterable[int] = ()) -> None:
        """Emit the process entry point: call main, exit with its result."""
        a = self.asm
        a.align(FUNCTION_ALIGN)
        start = a.offset
        a.label("_start")
        args = list(argv)
        for value in reversed(args):
            a.push(Imm(value, 32))
        a.call(main)
        if args:
            a.add(ESP, 4 * len(args))
        a.mov(EBX, EAX)
        a.mov(EAX, 1)
        a.int(0x80)
        self._function_spans["_start"] = (start, self.asm.offset)

    def finish(self):
        """Return (code_bytes, {name: (start_offset, end_offset)})."""
        return self.asm.assemble(), dict(self._function_spans)

    # ------------------------------------------------------------------
    # Per-op emission
    # ------------------------------------------------------------------

    def _emit_prologue(self) -> None:
        a = self.asm
        a.push(EBP)
        a.mov(EBP, ESP)
        for reg in _CALLEE_SAVED:
            a.push(reg)

    def _emit_epilogue(self) -> None:
        a = self.asm
        for reg in reversed(_CALLEE_SAVED):
            a.pop(reg)
        a.pop(EBP)
        a.ret()

    def _imm(self, value: int) -> Imm:
        if self.wide_immediates:
            return Imm(value, 32)
        return Imm(value, 8) if -128 <= (value & 0xFFFFFFFF) < 128 or value >= 0xFFFFFF80 else Imm(value, 32)

    def _emit_op(self, function: ir.IRFunction, op: ir.Op) -> None:
        a = self.asm
        scoped = lambda name: f"{function.name}.{name}"

        if isinstance(op, ir.Label):
            a.label(scoped(op.name))
        elif isinstance(op, ir.Const):
            if op.value == 0:
                a.xor(op.dst, op.dst)
            else:
                a.mov(op.dst, Imm(op.value, 32))
        elif isinstance(op, ir.Mov):
            a.mov(op.dst, op.src)
        elif isinstance(op, ir.AddConst):
            a.add(op.dst, Imm(op.value, 32))
        elif isinstance(op, ir.OHUpdate):
            a.add(mem32(disp=op.cell), op.src)
        elif isinstance(op, ir.OHMark):
            a.add(mem32(disp=op.cell), Imm(op.value, 32))
        elif isinstance(op, ir.BinOp):
            if op.op == "mul":
                a.imul(op.dst, op.src)
            else:
                a.emit(op.op, op.dst, op.src)
        elif isinstance(op, ir.Neg):
            a.neg(op.dst)
        elif isinstance(op, ir.Not):
            a.not_(op.dst)
        elif isinstance(op, ir.Shift):
            a.emit(op.op, op.dst, Imm(op.amount, 8))
        elif isinstance(op, ir.Load):
            a.mov(op.dst, mem32(op.base, disp=op.disp))
        elif isinstance(op, ir.Store):
            a.mov(mem32(op.base, disp=op.disp), op.src)
        elif isinstance(op, ir.Load8):
            a.movzx(op.dst, mem8(op.base, disp=op.disp))
        elif isinstance(op, ir.Store8):
            low8 = _low_byte_reg(op.src)
            a.mov(mem8(op.base, disp=op.disp), low8)
        elif isinstance(op, ir.Param):
            a.mov(op.dst, mem32(EBP, disp=8 + 4 * op.index))
        elif isinstance(op, ir.Call):
            for arg in reversed(op.args):
                a.push(arg)
            a.call(op.callee)
            if op.args:
                a.add(ESP, self._imm(4 * len(op.args)))
            if op.dst is not None and op.dst is not EAX:
                a.mov(op.dst, EAX)
        elif isinstance(op, ir.Syscall):
            a.int(0x80)
        elif isinstance(op, ir.Jump):
            a.jmp(scoped(op.target))
        elif isinstance(op, ir.Branch):
            if isinstance(op.b, int):
                a.cmp(op.a, self._imm(op.b))
            else:
                a.cmp(op.a, op.b)
            a.emit(_CC[op.cond], scoped(op.target))
        elif isinstance(op, ir.Ret):
            if op.src is not None and op.src is not EAX:
                a.mov(EAX, op.src)
            self._emit_epilogue()
        else:
            raise ir.IRError(f"native backend cannot emit {op!r}")


def _low_byte_reg(reg):
    """al/bl/cl/dl for the corresponding 32-bit register."""
    from ..x86.registers import GP8

    if reg.code >= 4:
        raise ir.IRError(
            f"Store8 source must be eax/ecx/edx/ebx (got {reg.name}); "
            "esi/edi have no byte alias in our subset"
        )
    return GP8[reg.code]


def compile_functions(
    functions: List[ir.IRFunction],
    base: int = 0x08048000,
    wide_immediates: bool = False,
    entry_main: Optional[str] = "main",
    argv: Iterable[int] = (),
):
    """Compile functions (+ entry stub) into (code, spans, entry_offset).

    ``entry_main=None`` skips the _start stub (for runtime-support blobs).
    """
    compiler = NativeCompiler(base=base, wide_immediates=wide_immediates)
    for function in functions:
        compiler.compile_function(function)
    entry_offset = None
    if entry_main is not None:
        entry_offset = compiler.asm.offset
        # align shifts the actual start; recompute from the span below.
        compiler.emit_start(entry_main, argv=argv)
        entry_offset = compiler._function_spans["_start"][0]
    code, spans = compiler.finish()
    return code, spans, entry_offset
