"""Call graphs."""

from repro.analysis import callgraph_from_binary, callgraph_from_ir
from repro.ropc import ir
from repro.x86 import EAX, EBX


def _toy_functions():
    callee = ir.IRFunction("callee", 1)
    callee.emit(ir.Param(EAX, 0))
    callee.emit(ir.Ret())
    caller = ir.IRFunction("caller", 0)
    caller.emit(ir.Const(EBX, 1))
    caller.emit(ir.Call(EAX, "callee", (EBX,)))
    caller.emit(ir.Call(EAX, "callee", (EBX,)))
    caller.emit(ir.Ret())
    return [callee, caller]


def test_ir_callgraph_counts_sites():
    graph = callgraph_from_ir(_toy_functions())
    assert graph.call_sites("callee") == 2
    assert graph.fan_in("callee") == 1
    assert "callee" in graph.leaves()
    assert "caller" not in graph.leaves()


def test_binary_callgraph_matches_ir(small_wget):
    from_ir = callgraph_from_ir(small_wget.functions.values())
    from_bin = callgraph_from_binary(small_wget.image)
    # binary recovery sees at least the statically-compiled direct calls
    assert from_bin.call_sites("digest_wget") >= 2
    assert from_bin.fan_in("to_hex") >= 1
    assert from_ir.call_sites("digest_wget") == from_bin.call_sites("digest_wget")
