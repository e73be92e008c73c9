"""Oblivious hashing baseline (Chen et al.).

OH intersperses hash-update instructions with the protected code: the
hash accumulates intermediate *execution state* (assigned values and
taken branches), and a check compares it against a known-good value.
Tampering changes the computation and hence the hash — without ever
reading code as data, so the Wurster attack does not apply.

The two limitations the paper holds against OH are both reproducible
here:

* instrumenting a function whose state depends on non-deterministic
  input (``ptrace_detect``) gives a run-dependent hash — the check
  must either be dropped (no protection) or it false-positives;
* the expected hash comes from concrete (test) executions, so only
  exercised paths are protected.

The instrumented code is also slower — OH pays its overhead in the
protected code itself, unlike Parallax (§IX).
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional

from ..corpus.program import RUN_MAX_STEPS, Program
from ..emu import Emulator
from ..ropc import ir
from ..x86.registers import EAX, EBX, ECX, EDI, EDX

EXIT_TAMPERED = 66

#: Marker immediate replaced by the recorded expected hash.
EXPECTED_MARKER = 0x0B1141C5


def instrument_function(function: ir.IRFunction, cell: int) -> ir.IRFunction:
    """Insert hash updates after every register assignment and at every
    basic-block label (path hashing)."""
    out = ir.IRFunction(function.name, function.params)
    for index, op in enumerate(function.body):
        out.emit(copy.copy(op))
        if isinstance(op, ir.Label):
            out.emit(ir.OHMark(0x9E3779B9 ^ index, cell))
        dst = getattr(op, "dst", None)
        if dst is not None and isinstance(
            op, (ir.Const, ir.Mov, ir.BinOp, ir.Load, ir.Shift, ir.Param, ir.AddConst)
        ):
            out.emit(ir.OHUpdate(dst, cell))
    return out


class OHProgram:
    """A corpus program with oblivious hashing over selected functions."""

    def __init__(
        self,
        program: Program,
        instrument: Iterable[str],
        check: bool = True,
        expected: Optional[int] = None,
    ):
        self.original = program
        self.instrumented = list(instrument)
        cell = program.data.addr("stats") if "stats" in program.data.names else None
        if cell is None:
            raise ValueError("program lacks a stats cell for the OH state")
        self.cell = cell + 4  # second word of the stats blob
        if expected is None and check:
            # Training run: build without the check, record the hash
            # the run leaves in the cell.
            trainer = Emulator(
                self._build(program, check=False).image, max_steps=RUN_MAX_STEPS
            )
            result = trainer.run()
            if result.crashed:
                raise RuntimeError(f"training run crashed: {result.fault}")
            expected = trainer.memory.read_u32(self.cell)
        self.expected = expected
        self.program = self._build(program, check=check, expected=expected)
        self.image = self.program.image

    def _build(self, program: Program, check: bool, expected: Optional[int] = None) -> Program:
        functions: List[ir.IRFunction] = []
        for name, function in program.functions.items():
            if name in self.instrumented:
                functions.append(instrument_function(function, self.cell))
            elif name == "main" and check:
                functions.append(
                    self._main_with_check(function, expected if expected is not None else EXPECTED_MARKER)
                )
            else:
                functions.append(
                    ir.IRFunction(name, function.params, [copy.copy(op) for op in function.body])
                )
        return Program(
            program.name + "+oh",
            functions,
            program.rodata,
            program.data,
            wide_immediates=program.wide_immediates,
            candidates=program.candidates,
        )

    def _main_with_check(self, main: ir.IRFunction, expected: int) -> ir.IRFunction:
        """Insert the hash check before every Ret of main."""
        out = ir.IRFunction("main", main.params)
        counter = 0
        for op in main.body:
            if isinstance(op, ir.Ret):
                ok = f"__oh_ok_{counter}"
                counter += 1
                # EDI is free at main's exits; preserve the return value
                # around the clobbering check sequence.
                out.emit(ir.Mov(EDI, EAX))
                out.emit(ir.Const(EDX, self.cell))
                out.emit(ir.Load(ECX, EDX, 0))
                out.emit(ir.Branch("eq", ECX, expected, ok))
                out.emit(ir.Const(EAX, 1))
                out.emit(ir.Const(EBX, EXIT_TAMPERED))
                out.emit(ir.Syscall())
                out.emit(ir.Label(ok))
                out.emit(ir.Mov(EAX, EDI))
            out.emit(copy.copy(op))
        return out

    def run(self, **kwargs):
        return self.program.run(**kwargs)
