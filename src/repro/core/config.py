"""Protection configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional

#: Chain-hardening strategies evaluated in Fig. 5 (§V-B, §VII-B).
STRATEGY_CLEARTEXT = "cleartext"
STRATEGY_XOR = "xor"
STRATEGY_RC4 = "rc4"
STRATEGY_LINEAR = "linear"

STRATEGIES = (STRATEGY_CLEARTEXT, STRATEGY_XOR, STRATEGY_RC4, STRATEGY_LINEAR)


@dataclass(eq=False)
class ProtectConfig:
    """Options for one protection run.

    Attributes:
        strategy: one of :data:`STRATEGIES`.
        verification_functions: function names to translate into chains;
            ``None`` selects one automatically per §VII-B.
        protect_addresses: instruction addresses whose overlapping
            gadgets should be preferred by the chain compiler; ``None``
            defaults to every control-flow and syscall instruction (the
            likely attack targets, §VIII).
        seed: determinism seed for probabilistic resolution and keys.
        guard_chains: §VI-C — insert a checksumming guard over the
            chain machinery (encrypted blobs, variant tables, runtime
            support), invoked from every loader stub.  Safe against the
            Wurster attack because the guarded bytes live in data
            memory; the paper proposes this and leaves it to future
            work.
    """

    strategy: str = STRATEGY_CLEARTEXT
    verification_functions: Optional[List[str]] = None
    protect_addresses: Optional[List[int]] = None
    seed: int = 0x9A11A7
    guard_chains: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def cache_key(self) -> tuple:
        """Every field, in declaration order, lists frozen to tuples —
        the config half of the protection cache key."""
        return tuple(
            tuple(value) if isinstance(value, list) else value
            for value in (getattr(self, field.name) for field in fields(self))
        )
