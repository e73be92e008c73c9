"""Verification-function selection — the §VII-B algorithm.

    "(1) We first analyze the call graph of the program to find
    functions which are called repeatedly from several locations ...
    (2) We then profile the program, and select the functions from the
    previous step which contribute less than a threshold to the total
    execution time (2% in our experiments).  (3) Finally, we select
    from this the function containing the most types of operations."

We add a zeroth step the paper leaves implicit: the function must be
*chain-translatable* (leaf, word-oriented) — checked by dry-running the
ROP compiler.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.callgraph import callgraph_from_ir
from ..corpus.program import RUN_MAX_STEPS
from ..emu.profiler import profile_run
from ..ropc import ir
from ..ropc.compiler import RopCompileError, RopCompiler


#: Step 2's profile share: a function this hot or hotter is too
#: expensive to become verification code (§VII-B: "2% in our
#: experiments").
TIME_THRESHOLD = 0.02


class SelectionError(Exception):
    """No function qualifies as verification code."""


class CandidateInfo:
    """Why a function was (not) selected; useful for reports."""

    __slots__ = ("name", "translatable", "call_sites", "time_share", "op_kinds")

    def __init__(self, name, translatable, call_sites, time_share, op_kinds):
        self.name = name
        self.translatable = translatable
        self.call_sites = call_sites
        self.time_share = time_share
        self.op_kinds = op_kinds

    def __repr__(self) -> str:
        return (
            f"<Candidate {self.name} translatable={self.translatable} "
            f"sites={self.call_sites} share={self.time_share:.2%} "
            f"ops={self.op_kinds}>"
        )


def is_chain_translatable(function) -> bool:
    """Dry-run the ROP compiler on ``function``."""
    if function is None:
        return False
    try:
        RopCompiler(frame_cell=0, resume_cell=4).compile(function)
    except (RopCompileError, ir.IRError):
        return False
    return True


def rank_candidates(program) -> List[CandidateInfo]:
    """Score every function of ``program`` against the selection steps.

    The profile is one block-engine run of the whole workload under the
    budget of :meth:`Program.run`.  A profile that stops early (step
    budget or fault) would rank time shares of a partial run, so it
    raises :class:`SelectionError` instead.
    """
    graph = callgraph_from_ir(program.functions.values())
    result, profiler = profile_run(program.image, max_steps=RUN_MAX_STEPS)
    if result.crashed:
        raise SelectionError(
            f"{program.name}: the selection profile stopped after "
            f"{result.steps:,} steps: {result.fault}"
        )

    infos = []
    for name, function in program.functions.items():
        if name in ("main", "_start"):
            continue
        infos.append(
            CandidateInfo(
                name=name,
                translatable=function.is_leaf and is_chain_translatable(function),
                call_sites=graph.call_sites(name),
                time_share=profiler.time_fraction(name),
                op_kinds=len(function.op_kinds()),
            )
        )
    return infos


def select_verification_function(
    program, infos: Optional[List[CandidateInfo]] = None
) -> str:
    """Pick the verification function per §VII-B.

    Returns the function name.  Raises :class:`SelectionError` when
    nothing qualifies.
    """
    if infos is None:
        infos = rank_candidates(program)
    eligible = [
        info
        for info in infos
        if info.translatable
        and info.call_sites >= 2          # step 1: several locations
        and 0 < info.time_share < TIME_THRESHOLD  # step 2: cheap but exercised
    ]
    if not eligible:
        # Relax step 1 before giving up: a single call site still
        # verifies, just less often.
        eligible = [
            info
            for info in infos
            if info.translatable and 0 < info.time_share < TIME_THRESHOLD
        ]
    if not eligible:
        raise SelectionError(
            f"{program.name}: no chain-translatable function below the "
            f"{TIME_THRESHOLD:.0%} profile threshold"
        )
    # step 3: most operation types; ties broken toward more call sites.
    best = max(eligible, key=lambda info: (info.op_kinds, info.call_sites))
    return best.name
