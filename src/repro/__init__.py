"""Parallax: implicit code integrity verification using ROP.

Reproduction of Andriesse, Bos & Slowinska, DSN 2015.  The package is
layered bottom-up:

* :mod:`repro.x86` — IA-32 assembler/disassembler substrate;
* :mod:`repro.binary` — image container, symbols, reversible patches;
* :mod:`repro.emu` — emulator with split I/D memory views and a
  return-predictor cost model;
* :mod:`repro.gadgets` — gadget discovery and the typed gadget mapping;
* :mod:`repro.ropc` — IR, native code generator, ROP chain compiler;
* :mod:`repro.rewrite` — the §IV-B rewriting rules and Fig. 6 analysis;
* :mod:`repro.core` — the Parallax protector itself;
* :mod:`repro.corpus` — the six synthetic evaluation programs;
* :mod:`repro.attacks` / :mod:`repro.baselines` — adversaries and the
  checksumming / oblivious-hashing comparison points.

Quickstart (one protect request: baseline run, protect, protected run)::

    from repro import ProtectConfig, build_program, protect_request

    program = build_program("wget")
    request = protect_request(program, ProtectConfig(strategy="rc4"))
    assert request.divergence is None
"""

from .core import (
    Parallax,
    ProtectConfig,
    ProtectedProgram,
    STRATEGIES,
    protect_request,
    select_verification_function,
)
from .corpus import PROGRAM_NAMES, build_program
from .emu import Emulator, RunResult, run_image
from .rewrite import RewriteEngine, format_fig6_table

__version__ = "1.0.0"

__all__ = [
    "Parallax",
    "ProtectConfig",
    "ProtectedProgram",
    "STRATEGIES",
    "protect_request",
    "select_verification_function",
    "PROGRAM_NAMES",
    "build_program",
    "Emulator",
    "RunResult",
    "run_image",
    "RewriteEngine",
    "format_fig6_table",
    "__version__",
]
