"""Gadget machinery: discovery, semantic classification, the gadget mapping."""

from .catalog import GadgetCatalog
from .finder import (
    MAX_GADGET_INSNS,
    MAX_LOOKBACK_BYTES,
    decode_gadget_at,
    find_gadgets,
    find_gadgets_in_bytes,
    find_gadgets_in_bytes_cached,
    reference_find_gadgets,
    reference_find_gadgets_in_bytes,
)
from .semantics import classify
from .types import COMPILER_USABLE, Gadget, GadgetKind, GadgetOp

__all__ = [
    "GadgetCatalog",
    "MAX_GADGET_INSNS",
    "MAX_LOOKBACK_BYTES",
    "decode_gadget_at",
    "find_gadgets",
    "find_gadgets_in_bytes",
    "find_gadgets_in_bytes_cached",
    "reference_find_gadgets",
    "reference_find_gadgets_in_bytes",
    "classify",
    "COMPILER_USABLE",
    "Gadget",
    "GadgetKind",
    "GadgetOp",
]
