"""Applying rewriting rules by IR recompilation (source-assisted mode).

The paper's prototype "uses source to simplify binary rewriting"; ours
does the same: instead of reflowing machine code in place (length
changes would cascade through every displacement), a rule application
transforms the owning function's IR and the binary is recompiled.  The
measurement rules in :mod:`repro.rewrite.rules` stay purely
binary-level, as a binary-only deployment would be.

:class:`ImmediateSplitter` implements §IV-B2 instruction splitting:
``Const(dst, K)`` becomes ``Const(dst, K'); AddConst(dst, K-K')`` with
``K'`` chosen so its imm32 encoding contains the ret opcode.  The
xor-compensation variant of the paper's Listing 3 is provided by
:func:`plant_ret_byte` for constant planning.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

from ..ropc import ir

RET_BYTE = 0xC3


def plant_ret_byte(value: int, byte_index: int = 0) -> Tuple[int, int]:
    """Choose (K', D) with K' ^ D == value and byte ``byte_index`` of K'
    equal to the ret opcode — the xor-compensation form of Listing 3."""
    shift = 8 * byte_index
    target_byte = (value >> shift) & 0xFF
    diff = (target_byte ^ RET_BYTE) << shift
    return value ^ diff, diff


def plant_ret_byte_add(value: int, byte_index: int = 0) -> Tuple[int, int]:
    """Choose (K', C) with (K' + C) mod 2^32 == value and the chosen
    byte of K' equal to the ret opcode — the additive splitting form."""
    shift = 8 * byte_index
    planted = (value & ~(0xFF << shift)) | (RET_BYTE << shift)
    compensation = (value - planted) & 0xFFFFFFFF
    return planted & 0xFFFFFFFF, compensation


class ImmediateSplitter:
    """Rewrites Const ops so their immediates host return opcodes.

    Note the split makes the protected function a couple of cycles
    slower — the paper flags exactly this: "instruction splitting
    induces a small performance overhead on the protected code."
    """

    def __init__(self, byte_index: int = 0):
        if not 0 <= byte_index <= 3:
            raise ValueError("byte_index must be 0..3")
        self.byte_index = byte_index

    def transform(
        self, function: ir.IRFunction, indices: Optional[List[int]] = None
    ) -> ir.IRFunction:
        """Return a copy of ``function`` with selected Consts split.

        Args:
            function: the IR to transform (left untouched).
            indices: positions of Const ops to split; every Const when
                omitted.
        """
        out = ir.IRFunction(function.name, function.params)
        for index, op in enumerate(function.body):
            if isinstance(op, ir.Const) and (indices is None or index in indices):
                planted, compensation = plant_ret_byte_add(op.value, self.byte_index)
                out.emit(ir.Const(op.dst, planted))
                out.emit(ir.AddConst(op.dst, compensation))
            else:
                out.emit(copy.copy(op))
        return out
