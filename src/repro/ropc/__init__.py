"""ROP compiler substrate: IR, native backend, chains, ROP backend."""

from . import ir
from .chain import (
    ChainError,
    ChainLabel,
    ConstWord,
    DeltaWord,
    FAR_PAD,
    KindWord,
    LabelWord,
    MissingGadget,
    RopChain,
)
from .compiler import ARG_BASE_OFFSET, PUSHAD_EAX_OFFSET, RopCompileError, RopCompiler
from .interpreter import Interpreter, InterpreterError, IRMemory
from .nativegen import NativeCompiler, compile_functions
from .standard import StandardGadgetError, emit_standard_gadgets

__all__ = [
    "ir",
    "ChainError", "ChainLabel", "ConstWord", "DeltaWord", "FAR_PAD",
    "KindWord", "LabelWord", "MissingGadget", "RopChain",
    "ARG_BASE_OFFSET", "PUSHAD_EAX_OFFSET", "RopCompileError", "RopCompiler",
    "Interpreter", "InterpreterError", "IRMemory",
    "NativeCompiler", "compile_functions",
    "StandardGadgetError", "emit_standard_gadgets",
]
