"""IA-32 emulator substrate: memory with I/D split, CPU, toy OS, profiler."""

from .blocks import BlockEngine
from .cpu import CPUState
from .dispatch import DISPATCH
from .emulator import (
    CALL_SENTINEL,
    CYCLE_COSTS,
    DEFAULT_ENGINE,
    ENGINE_BLOCK,
    ENGINE_DESCRIPTIONS,
    ENGINE_STEP,
    ENGINES,
    Emulator,
    RunResult,
    StepBlock,
    TamperWatch,
    run_image,
)
from .errors import (
    BadFetch,
    BadMemoryAccess,
    DivideError,
    EmulationError,
    Halted,
    StepLimitExceeded,
    UnsupportedSyscall,
)
from .memory import PAGE_SIZE, Memory
from .profiler import FunctionProfile, Profiler, profile_run
from .syscalls import (
    ExitProgram,
    OperatingSystem,
    SYS_EXIT,
    SYS_GETPID,
    SYS_PTRACE,
    SYS_READ,
    SYS_TIME,
    SYS_WRITE,
)

__all__ = [
    "CPUState", "Emulator", "RunResult", "TamperWatch",
    "StepBlock", "run_image",
    "CALL_SENTINEL", "CYCLE_COSTS", "Memory", "PAGE_SIZE",
    "BlockEngine", "DISPATCH",
    "ENGINES", "ENGINE_BLOCK", "ENGINE_STEP",
    "ENGINE_DESCRIPTIONS", "DEFAULT_ENGINE",
    "BadFetch", "BadMemoryAccess", "DivideError", "EmulationError",
    "Halted", "StepLimitExceeded", "UnsupportedSyscall",
    "FunctionProfile", "Profiler", "profile_run",
    "ExitProgram", "OperatingSystem",
    "SYS_EXIT", "SYS_GETPID", "SYS_PTRACE", "SYS_READ", "SYS_TIME", "SYS_WRITE",
]
