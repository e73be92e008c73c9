"""Parallax core: selection, protection pipeline, dynamic chains, stubs."""

from .config import (
    ProtectConfig,
    STRATEGIES,
    STRATEGY_CLEARTEXT,
    STRATEGY_LINEAR,
    STRATEGY_RC4,
    STRATEGY_XOR,
)
from .microchains import (
    MicrochainError,
    MicrochainProtected,
    protect_microchains,
)
from .protector import (
    ENC_BASE,
    GADGETS_BASE,
    Parallax,
    ProtectError,
    ProtectResult,
    ProtectedProgram,
    ROPCHAINS_BASE,
    ROPDATA_BASE,
    RT_BASE,
    STUBS_BASE,
    protect_request,
)
from .report import ChainRecord, ProtectionReport
from .selection import (
    CandidateInfo,
    SelectionError,
    is_chain_translatable,
    rank_candidates,
    select_verification_function,
)
from .stubs import StubLayout, build_loader_stub

__all__ = [
    "ProtectConfig", "STRATEGIES",
    "STRATEGY_CLEARTEXT", "STRATEGY_XOR", "STRATEGY_RC4", "STRATEGY_LINEAR",
    "Parallax", "ProtectError", "ProtectResult", "ProtectedProgram",
    "protect_request",
    "GADGETS_BASE", "STUBS_BASE", "ROPDATA_BASE", "ROPCHAINS_BASE",
    "RT_BASE", "ENC_BASE",
    "ChainRecord", "ProtectionReport",
    "CandidateInfo", "SelectionError", "is_chain_translatable",
    "rank_candidates", "select_verification_function",
    "StubLayout", "build_loader_stub",
    "MicrochainError", "MicrochainProtected", "protect_microchains",
]
