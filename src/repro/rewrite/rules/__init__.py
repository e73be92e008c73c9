"""The binary rewriting rules of §IV-B, one module per rule family."""

from .existing import existing_gadgets
from .immediates import ImmediateCandidate, immediate_field_width
from .jumps import JumpCandidate, jump_field_width

__all__ = [
    "ImmediateCandidate",
    "JumpCandidate",
    "existing_gadgets",
    "immediate_field_width",
    "jump_field_width",
]
