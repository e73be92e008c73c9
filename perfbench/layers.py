"""Spans around the program's layers, recorded from outside the program.

A layer is instrumented by replacing its public function at the name
its caller looks up: ``from ... import`` bindings mean that
``find_gadgets`` is looked up as ``repro.core.protector.find_gadgets``,
``profile_run`` as ``repro.core.selection.profile_run``, and so on.
Spans stay in memory, carry name, start, end and parent, and are
written out once when the run ends.

The same patching also *taps* results: a few calls return the exact
counts the benchmark guards (profile steps, run steps, the protected
program).  With ``Instruments.spans`` set to ``None`` the wrappers only
tap, with no timing, so untraced requests run the program as is.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: Span name -> the per-layer metric its self time feeds.
LAYER_METRICS = {
    "emu.profiler": "emu.profiler.run_ms",
    "analysis.callgraph": "analysis.callgraph_ms",
    "core.selection": "core.selection.self_ms",
    "emu.run": "emu.run_ms",
    "gadgets.find": "gadgets.find_ms",
    "x86.decode": "x86.decode_ms",
    "ropc.compile": "ropc.compile_ms",
    "ropc.resolve": "ropc.resolve_ms",
    "ropc.runtime": "ropc.runtime_ms",
    "crypto.encrypt": "crypto.encrypt_ms",
    "core.protector": "core.protector.self_ms",
}


class Spans:
    """In-memory span recorder for the benchmark's single thread."""

    def __init__(self) -> None:
        self.finished: List[dict] = []
        self._stack: List[dict] = []
        self._next_id = 1

    def start(self, name: str, **attrs) -> dict:
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
            **attrs,
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]
        self.finished.append(span)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.finished, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


class Instruments:
    """Patches layer functions in place; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        #: The recorder wrappers write to; ``None`` means tap only.
        self.spans: Optional[Spans] = None
        self._captured: Dict[str, list] = defaultdict(list)
        self._undo: list = []

    def wrap(self, owner, attr: str, layer: str, capture: bool = False) -> None:
        original = getattr(owner, attr)
        sink = self._captured[layer]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans = self.spans
            if spans is None:
                result = original(*args, **kwargs)
            else:
                span = spans.start(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.end(span)
            if capture:
                sink.append(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_compiler(self, owner, attr: str, layer: str) -> None:
        """Swap a compiler class for a subclass whose ``compile`` is a
        span, so only callers looking it up at ``owner.attr`` are timed
        (selection's translatability dry-runs stay in selection)."""
        original = getattr(owner, attr)
        instruments = self

        class TimedCompiler(original):
            def compile(self, function):
                spans = instruments.spans
                if spans is None:
                    return super().compile(function)
                span = spans.start(layer)
                try:
                    return super().compile(function)
                finally:
                    spans.end(span)

        TimedCompiler.__name__ = original.__name__
        setattr(owner, attr, TimedCompiler)
        self._undo.append((owner, attr, original))

    def take(self, layer: str) -> list:
        """The results captured for ``layer`` since the last take."""
        values = list(self._captured[layer])
        self._captured[layer].clear()
        return values

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_protect_layers(instruments: Instruments, traced: bool) -> None:
    """Instrument the protect request's layers at their lookup names.

    The taps (always installed) capture the selection profile, the
    baseline and protected runs, and the protected program.  ``traced``
    adds a span wrapper for every other layer of the request.
    """
    import repro.cli
    import repro.core.protector as protector
    import repro.core.selection as selection
    import repro.corpus
    import repro.corpus.program as program
    import repro.ropc.chain as chain

    wrap = instruments.wrap
    wrap(selection, "profile_run", "emu.profiler", capture=True)
    wrap(program, "run_image", "emu.run", capture=True)
    wrap(protector, "run_image", "emu.run", capture=True)
    wrap(protector.Parallax, "protect", "core.protector", capture=True)
    if not traced:
        return
    wrap(repro.cli, "build_program", "corpus.build")
    wrap(repro.corpus, "build_program", "corpus.build")
    wrap(selection, "callgraph_from_ir", "analysis.callgraph")
    wrap(protector, "select_verification_function", "core.selection")
    wrap(protector, "find_gadgets", "gadgets.find")
    wrap(protector, "decode_all_cached", "x86.decode")
    instruments.wrap_compiler(protector, "RopCompiler", "ropc.compile")
    wrap(chain.RopChain, "resolve", "ropc.resolve")
    wrap(protector, "compile_functions", "ropc.runtime")
    wrap(protector, "emit_standard_gadgets", "ropc.runtime")
    wrap(protector, "xor_crypt_words", "crypto.encrypt")
    wrap(protector, "rc4_crypt", "crypto.encrypt")


def self_seconds(spans: Spans, roots: List[dict]) -> Dict[str, float]:
    """Total self time per span name under ``roots`` (roots excluded)."""
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans.finished:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    pending = [child for root in roots for child in children[root["id"]]]
    while pending:
        span = pending.pop()
        totals[span["name"]] += span["end"] - span["start"] - span["child_s"]
        pending.extend(children[span["id"]])
    return totals


def request_ledger(spans: Spans, roots: List[dict]) -> Dict[str, float]:
    """Per-layer self time in mean ms per request, the mean request
    wall time, and the share of request wall time no span covers."""
    totals = self_seconds(spans, roots)
    count = max(1, len(roots))
    ledger = {
        metric: 1000.0 * totals.get(name, 0.0) / count
        for name, metric in LAYER_METRICS.items()
    }
    wall = sum(root["end"] - root["start"] for root in roots)
    uncovered = sum(root["end"] - root["start"] - root["child_s"] for root in roots)
    ledger["trace.untraced_share"] = uncovered / wall if wall else 0.0
    ledger["request.wall_ms"] = 1000.0 * wall / count
    return ledger
