"""Self-checksumming baseline (traditional tamperproofing, Chang et al.).

Guards sum words of code regions and abort on mismatch; regions form a
cross-verifying network (each region also covers the guard code of the
next, cyclically).  This is the class of protection Wurster et al.
break wholesale: guards *read* code through the data view, so an
instruction-view patch sails through — demonstrated by
``tests/integration`` and the attack-matrix benchmark.

Expected sums are patched into the binary post-compilation via marker
immediates; regions cover everything below the guarded main so the
markers never checksum themselves.
"""

from __future__ import annotations

import copy
from typing import List, Optional

from ..corpus.program import Program, call_const
from ..ropc import ir
from ..x86.registers import EAX, EBX, ECX, EDX, ESI

#: Marker immediates replaced with real checksums after compilation.
MARKER_BASE = 0x7E57C0DE
EXIT_TAMPERED = 66


def guard_function() -> ir.IRFunction:
    """__guard(start, nwords, expected): additive word checksum."""
    f = ir.IRFunction("__guard", params=3)
    f.emit(ir.Param(ESI, 0))            # region start
    f.emit(ir.Param(ECX, 1))            # nwords
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Label("sum"))
    f.emit(ir.Branch("eq", ECX, 0, "check"))
    f.emit(ir.Load(EDX, ESI, 0))
    f.emit(ir.BinOp("add", EAX, EDX))
    f.emit(ir.Const(EDX, 4))
    f.emit(ir.BinOp("add", ESI, EDX))
    f.emit(ir.Const(EDX, 1))
    f.emit(ir.BinOp("sub", ECX, EDX))
    f.emit(ir.Jump("sum"))
    f.emit(ir.Label("check"))
    f.emit(ir.Param(EBX, 2))            # expected
    f.emit(ir.Branch("eq", EAX, EBX, "ok"))
    f.emit(ir.Const(EAX, 1))            # exit(EXIT_TAMPERED)
    f.emit(ir.Const(EBX, EXIT_TAMPERED))
    f.emit(ir.Syscall())
    f.emit(ir.Label("ok"))
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Ret())
    return f


class ChecksummedProgram:
    """A corpus program wrapped in a checksumming guard network."""

    def __init__(self, program: Program, guards: int = 3):
        self.original = program
        self.guards = guards
        self.program = self._build(program, guards)
        self.image = self.program.image

    @staticmethod
    def _build(program: Program, guards: int) -> Program:
        # main -> main_inner; a fresh main runs the guards first.
        functions: List[ir.IRFunction] = []
        for name, function in program.functions.items():
            clone = ir.IRFunction(
                "main_inner" if name == "main" else name,
                function.params,
                [copy.copy(op) for op in function.body],
            )
            functions.append(clone)

        wrapper = ir.IRFunction("main", params=0)
        for index in range(guards):
            # Region bounds are placeholders too (patched with the real
            # layout after compilation).
            call_const(
                wrapper, "__guard",
                MARKER_BASE ^ (0x10000 + index),     # start marker
                MARKER_BASE ^ (0x20000 + index),     # nwords marker
                MARKER_BASE + index,                 # expected marker
            )
        wrapper.emit(ir.Call(EAX, "main_inner"))
        wrapper.emit(ir.Ret())

        ordered = [guard_function()] + functions + [wrapper]
        guarded = Program(
            program.name + "+csum",
            ordered,
            program.rodata,
            program.data,
            wide_immediates=program.wide_immediates,
            candidates=program.candidates,
        )
        ChecksummedProgram._patch_markers(guarded, guards)
        return guarded

    @staticmethod
    def _patch_markers(guarded: Program, guards: int) -> None:
        image = guarded.image
        text = image.text
        main_start = image.symbols["main"].vaddr
        region_words = (main_start - text.vaddr) // 4
        # Cyclic cross-verification: overlapping slices, each also
        # covering the next slice's start (and the guard body, which is
        # at the start of .text).
        slice_words = region_words // guards
        regions = []
        for index in range(guards):
            start = text.vaddr + index * slice_words * 4
            length = min(slice_words + slice_words // 2, region_words - index * slice_words)
            regions.append((start, length))

        data = bytearray(text.data)

        def replace_imm(marker: int, value: int) -> None:
            needle = (marker & 0xFFFFFFFF).to_bytes(4, "little")
            offset = data.find(needle)
            if offset < 0:
                raise ValueError(f"marker {marker:#x} not found")
            data[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

        # Pass 1: patch region bounds.
        for index, (start, length) in enumerate(regions):
            replace_imm(MARKER_BASE ^ (0x10000 + index), start)
            replace_imm(MARKER_BASE ^ (0x20000 + index), length)
        text.data[:] = data

        # Pass 2: compute sums over the final bytes (markers for the
        # expected values live in main, outside every region).
        for index, (start, length) in enumerate(regions):
            region = image.read(start, length * 4)
            total = 0
            for word_index in range(length):
                total = (
                    total
                    + int.from_bytes(
                        region[4 * word_index : 4 * word_index + 4], "little"
                    )
                ) & 0xFFFFFFFF
            data = bytearray(text.data)
            needle = (MARKER_BASE + index).to_bytes(4, "little")
            offset = data.find(needle)
            if offset < 0:
                raise ValueError("expected-value marker not found")
            data[offset : offset + 4] = total.to_bytes(4, "little")
            text.data[:] = data

    def run(self, **kwargs):
        return self.program.run(**kwargs)
