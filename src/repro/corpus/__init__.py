"""Synthetic corpus: the six test programs of the paper's evaluation."""

from . import builders
from .generator import FunctionGenerator, MixProfile
from .program import (
    DATA_BASE,
    DataBuilder,
    Program,
    RODATA_BASE,
    TEXT_BASE,
    call_const,
    input_bytes,
)
from .programs import (
    BUILDERS,
    PROGRAM_NAMES,
    build_bzip2,
    build_gcc,
    build_gzip,
    build_lame,
    build_nginx,
    build_program,
    build_program_cached,
    build_wget,
)

__all__ = [
    "builders",
    "FunctionGenerator",
    "MixProfile",
    "DataBuilder",
    "Program",
    "call_const",
    "input_bytes",
    "TEXT_BASE", "RODATA_BASE", "DATA_BASE",
    "BUILDERS", "PROGRAM_NAMES",
    "build_program", "build_program_cached",
    "build_wget", "build_nginx", "build_bzip2",
    "build_gzip", "build_gcc", "build_lame",
]
