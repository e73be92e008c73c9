"""Instruction-level verification: µ-chains (§V-C).

Instead of translating a whole function, every data-flow instruction is
translated into its own short ROP chain, inlined into the function's
control flow (the paper's Fig. 3b).  Control flow, parameter access and
returns stay native; each µ-chain performs one operation on the live
register state and pivots back.

The paper finds this inferior to function chains — (1) the inline setup
code is easy to spot statically, (2) it cannot be encrypted or
regenerated, (3) every µ-chain pays its own prologue/epilogue, roughly
doubling the cost — and our measured numbers agree (the ``microchains``
golden of ``tests/paper/test_paper_numbers.py``).  It is implemented
faithfully so the comparison is real rather than analytic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..binary import BinaryImage, Perm, Section
from ..corpus.program import Program
from ..gadgets import GadgetCatalog, find_gadgets
from ..ropc import emit_standard_gadgets, ir
from ..ropc.compiler import RopCompileError, compile_single_op
from ..ropc.nativegen import NativeCompiler
from ..x86.operands import Imm, mem32
from ..x86.registers import EDI, ESP, Register

UCHAIN_BASE = 0x08100000
UDRIVER_BASE = 0x08110000
UGADGETS_BASE = 0x08120000
UDATA_BASE = 0x08130000

#: IR op types translated to µ-chains (data flow only).
CHAIN_OPS = (
    ir.Const, ir.Mov, ir.BinOp, ir.AddConst, ir.Neg, ir.Not,
    ir.Shift, ir.Load, ir.Store,
)


class MicrochainError(Exception):
    pass


class MicrochainProtected:
    """Result of µ-chain protection."""

    def __init__(self, program: Program, image: BinaryImage,
                 chain_count: int, chain_words: int):
        self.program = program
        self.image = image
        self.chain_count = chain_count
        self.chain_words = chain_words

    def run(self, **kwargs):
        from ..emu import run_image

        kwargs.setdefault("max_steps", 100_000_000)
        return run_image(self.image, **kwargs)

    def __repr__(self) -> str:
        return (
            f"<MicrochainProtected {self.program.name}: "
            f"{self.chain_count} µ-chains, {self.chain_words} words>"
        )


def protect_microchains(
    program: Program,
    function_name: str,
    scratch: Register = EDI,
) -> MicrochainProtected:
    """Translate every data-flow op of ``function_name`` into a µ-chain.

    The function must be leaf, word-oriented, and must not use the
    ``scratch`` register.
    """
    function = program.functions.get(function_name)
    if function is None:
        raise MicrochainError(f"unknown function {function_name!r}")
    used = {reg.name for op in function.body for reg in op.regs_used()}
    if scratch.name in used:
        raise MicrochainError(
            f"{function_name} uses the µ-chain scratch register {scratch.name}"
        )
    if not function.is_leaf:
        raise MicrochainError(f"{function_name} is not a leaf function")

    image = program.image.clone()
    resume_cell = UDATA_BASE

    # -- compile one chain per data-flow op --------------------------------
    chains = []
    for op in function.body:
        if isinstance(op, CHAIN_OPS):
            chains.append((op, compile_single_op(op, resume_cell, scratch)))
        else:
            chains.append((op, None))

    # -- gadget supply ------------------------------------------------------
    catalog = GadgetCatalog(find_gadgets(image))
    required = {}
    for _op, chain in chains:
        if chain is None:
            continue
        for kind in chain.required_kinds():
            required.setdefault(kind.key(), kind)
    missing = [
        kind
        for kind in required.values()
        if not any(not g.far for g in catalog.of_kind(kind))
    ]
    if missing:
        gcode, inserted = emit_standard_gadgets(missing, UGADGETS_BASE)
        image.add_section(Section(".ugadgets", UGADGETS_BASE, gcode, Perm.RX))
        for gadget in inserted:
            catalog.add(gadget)

    # -- serialize the chains -----------------------------------------------
    blob = bytearray()
    chain_addrs: List[Optional[int]] = []
    total_words = 0
    for _op, chain in chains:
        if chain is None:
            chain_addrs.append(None)
            continue
        resolved = chain.resolve(catalog)
        addr = UCHAIN_BASE + len(blob)
        blob += resolved.to_bytes(addr)
        chain_addrs.append(addr)
        total_words += resolved.word_count
    image.add_section(Section(".uchains", UCHAIN_BASE, bytes(blob), Perm.RW))
    image.add_section(Section(".udata", UDATA_BASE, bytes(16), Perm.RW))

    # -- assemble the driver (two passes for resume addresses) ---------------
    code = _assemble_driver(function, chains, chain_addrs, resume_cell)
    image.add_section(Section(".udriver", UDRIVER_BASE, code, Perm.RX))

    # -- redirect the original entry -----------------------------------------
    symbol = image.symbols[function_name]
    rel = UDRIVER_BASE - (symbol.vaddr + 5)
    image.write(symbol.vaddr, b"\xe9" + (rel & 0xFFFFFFFF).to_bytes(4, "little"))

    chain_count = sum(1 for addr in chain_addrs if addr is not None)
    return MicrochainProtected(program, image, chain_count, total_words)


def _assemble_driver(function, chains, chain_addrs, resume_cell) -> bytes:
    """Native driver: the function's control flow with inline µ-chain
    pivots replacing each data-flow instruction (Fig. 3b)."""

    def emit(resume_addrs: Dict[int, int]) -> NativeCompiler:
        compiler = NativeCompiler(base=UDRIVER_BASE)
        asm = compiler.asm
        compiler._emit_prologue()
        for index, (op, _chain) in enumerate(chains):
            addr = chain_addrs[index]
            if addr is None:
                compiler._emit_op(function, op)
                continue
            # inline setup: push resume; record the slot; pivot
            asm.push(Imm(resume_addrs.get(index, 0), 32))
            asm.mov(mem32(disp=resume_cell), ESP)
            asm.mov(ESP, Imm(addr, 32))
            asm.ret()
            asm.label(f"__uresume_{index}")
        return compiler

    draft = emit({})
    draft.asm.assemble()
    resume_addrs = {
        index: draft.asm.address_of(f"__uresume_{index}")
        for index, addr in enumerate(chain_addrs)
        if addr is not None
    }
    final = emit(resume_addrs)
    code = final.asm.assemble()
    for index, addr in resume_addrs.items():
        assert final.asm.address_of(f"__uresume_{index}") == addr
    return code
