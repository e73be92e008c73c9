"""Program container: IR functions + data + a runnable BinaryImage."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..binary import BinaryImage, Perm, Section
from ..emu import RunResult, run_image
from ..ropc import CodegenOptions, compile_functions, ir
from ..x86.registers import EAX, EBX, ECX, EDX, EDI, ESI

TEXT_BASE = 0x08048000
RODATA_BASE = 0x08070000
DATA_BASE = 0x08090000

#: Instruction budget of a program's workload run (and of its §VII-B
#: selection profile); every corpus workload finishes well inside it.
RUN_MAX_STEPS = 10_000_000


class DataBuilder:
    """Allocates named blobs in a data section."""

    def __init__(self, base: int):
        self.base = base
        self.blob = bytearray()
        self.names: Dict[str, Tuple[int, int]] = {}

    def add(self, name: str, data: bytes, align: int = 4) -> int:
        while (self.base + len(self.blob)) % align:
            self.blob.append(0)
        addr = self.base + len(self.blob)
        self.blob += data
        self.names[name] = (addr, len(data))
        return addr

    def reserve(self, name: str, size: int, align: int = 4) -> int:
        return self.add(name, bytes(size), align=align)

    def addr(self, name: str) -> int:
        return self.names[name][0]


class Program:
    """A corpus program: everything Parallax and the benchmarks need.

    Attributes:
        name: program name ("wget", ...).
        functions: name -> IRFunction, every function in the binary.
        image: the compiled, runnable :class:`BinaryImage`.
        candidates: names of chain-translatable verification candidates.
        rodata/data: the :class:`DataBuilder` maps for address lookups.
    """

    def __init__(
        self,
        name: str,
        functions: List[ir.IRFunction],
        rodata: DataBuilder,
        data: DataBuilder,
        options: Optional[CodegenOptions] = None,
        candidates: Iterable[str] = (),
    ):
        self.name = name
        self.functions = {f.name: f for f in functions}
        self.rodata = rodata
        self.data = data
        self.options = options or CodegenOptions()
        self.candidates = list(candidates)
        self.image = self._build_image(functions)

    def _build_image(self, functions: List[ir.IRFunction]) -> BinaryImage:
        code, spans, entry = compile_functions(
            functions, base=TEXT_BASE, options=self.options, entry_main="main"
        )
        image = BinaryImage(self.name)
        image.add_section(Section(".text", TEXT_BASE, code, Perm.RX))
        if self.rodata.blob:
            image.add_section(
                Section(".rodata", RODATA_BASE, bytes(self.rodata.blob), Perm.R)
            )
        if self.data.blob:
            image.add_section(
                Section(".data", DATA_BASE, bytes(self.data.blob), Perm.RW)
            )
        image.entry = TEXT_BASE + entry
        by_name = {f.name: f for f in functions}
        for fname, (start, end) in spans.items():
            image.add_function(
                fname, TEXT_BASE + start, end - start, ir=by_name.get(fname)
            )
        for name, (addr, size) in {**self.rodata.names, **self.data.names}.items():
            image.add_object(name, addr, size)
        image.metadata["candidates"] = list(self.candidates)
        return image

    # ------------------------------------------------------------------

    def run(
        self,
        debugger_attached: bool = False,
        max_steps: int = RUN_MAX_STEPS,
        image: Optional[BinaryImage] = None,
        engine: Optional[str] = None,
    ) -> RunResult:
        """Execute the program's workload (optionally a modified image)."""
        target = image if image is not None else self.image
        return run_image(
            target,
            debugger_attached=debugger_attached,
            max_steps=max_steps,
            engine=engine,
        )

    def code_size(self) -> int:
        return self.image.text.size

    def __repr__(self) -> str:
        return (
            f"<Program {self.name}: {len(self.functions)} functions, "
            f"{self.code_size()} code bytes>"
        )


def call_const(f: ir.IRFunction, callee: str, *values: int, dst=EAX) -> None:
    """Emit a call with constant arguments (loaded into scratch regs)."""
    arg_regs = (EBX, ECX, EDX)
    if len(values) > len(arg_regs):
        raise ir.IRError("call_const supports at most 3 arguments")
    used = []
    for value, reg in zip(values, arg_regs):
        f.emit(ir.Const(reg, value))
        used.append(reg)
    f.emit(ir.Call(dst, callee, used))


def input_bytes(seed: int, length: int, alphabet: Optional[bytes] = None) -> bytes:
    """Deterministic pseudo-random input data."""
    rng = random.Random(seed)
    if alphabet is None:
        return bytes(rng.randrange(256) for _ in range(length))
    return bytes(alphabet[rng.randrange(len(alphabet))] for _ in range(length))
