"""Program analysis helpers: call graphs."""

from .callgraph import CallGraph, callgraph_from_binary, callgraph_from_ir

__all__ = [
    "CallGraph",
    "callgraph_from_binary",
    "callgraph_from_ir",
]
