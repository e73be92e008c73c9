"""The Parallax protection pipeline (§III, steps 1–5).

Given a corpus :class:`~repro.corpus.program.Program`, the protector:

1. selects verification code (§VII-B) and translates it into
   placeholder ROP chains (the paper's :math:`\\mathcal{R}`);
2. reserves loader stubs and redirects the selected functions to them
   (binary patch: ``jmp stub`` at the function entry);
3. collects every gadget in the (patched) binary, inserts a standard
   set for any kinds the chains need but the binary lacks, and marks
   gadgets overlapping the instructions-to-protect as preferred;
4. resolves the chains against the gadget mapping — preferring
   overlapping gadgets — and serializes them per the configured
   hardening strategy (cleartext / xor / RC4 / probabilistic linear
   combination), adding runtime-support code for the dynamic ones;
5. emits the loader stubs and the protection report.

The protected binary runs in the emulator exactly like the original;
its verification functions now execute as ROP chains whose gadgets
implicitly verify the protected code bytes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..binary import BinaryImage, Perm, Section
from ..cache import cached
from ..corpus.program import RUN_MAX_STEPS, Program
from ..emu import RunResult, run_image
from ..gadgets import GadgetCatalog, find_gadgets
from ..ropc import compile_functions, emit_standard_gadgets
from ..ropc.chain import RopChain
from ..ropc.compiler import RopCompiler
from ..x86.decoder import decode_all_cached
from ..crypto import rc4_crypt, xor_crypt_words
from . import runtime
from .config import (
    ProtectConfig,
    STRATEGY_CLEARTEXT,
    STRATEGY_LINEAR,
    STRATEGY_RC4,
    STRATEGY_XOR,
)
from ..telemetry import get_metrics, get_recorder, get_tracer
from .report import ChainRecord, ProtectionReport
from .selection import select_verification_function
from .stubs import build_loader_stub

GADGETS_BASE = 0x080A0000
STUBS_BASE = 0x080B0000
ROPDATA_BASE = 0x080C0000
ROPCHAINS_BASE = 0x080D0000
RT_BASE = 0x080E0000
ENC_BASE = 0x080F0000

_STUB_SLOT = 192  # bytes reserved per loader stub (guards + decryptor calls)


class ProtectError(Exception):
    pass


class _Allocator:
    """Bump allocator for a growing section blob."""

    def __init__(self, base: int):
        self.base = base
        self.blob = bytearray()

    def alloc(self, size: int, init: bytes = b"", align: int = 4) -> int:
        while (self.base + len(self.blob)) % align:
            self.blob.append(0)
        addr = self.base + len(self.blob)
        payload = bytes(init) + bytes(size - len(init))
        self.blob += payload
        return addr


class ProtectedProgram:
    """A protected binary plus its provenance.

    ``cached`` is true when :meth:`Parallax.protect` answered from the
    protect cache instead of running the pipeline.
    """

    def __init__(
        self,
        program: Program,
        image: BinaryImage,
        report: ProtectionReport,
        cached: bool = False,
    ):
        self.program = program
        self.image = image
        self.report = report
        self.cached = cached

    def run(
        self,
        debugger_attached: bool = False,
        max_steps: int = RUN_MAX_STEPS,
        image: Optional[BinaryImage] = None,
        engine: Optional[str] = None,
    ) -> RunResult:
        target = image if image is not None else self.image
        return run_image(
            target,
            debugger_attached=debugger_attached,
            max_steps=max_steps,
            engine=engine,
        )

    def __repr__(self) -> str:
        return f"<ProtectedProgram {self.program.name} [{self.report.strategy}]>"


class Parallax:
    """The protector."""

    def __init__(self, config: Optional[ProtectConfig] = None):
        self.config = config or ProtectConfig()

    # ------------------------------------------------------------------

    def protect(self, program: Program, use_cache: bool = True) -> ProtectedProgram:
        """Protect ``program``, consulting the content-addressed cache.

        Every random choice in the pipeline derives from
        ``config.seed``, so protection is a pure function of the input
        image and the config — which is exactly the cache input.  A hit
        deserializes a fresh image/report pair, indistinguishable from
        a recompute; ``use_cache=False`` forces the full pipeline.
        """
        with get_tracer().span(
            "protect", program=program.name, strategy=self.config.strategy
        ) as span:
            if use_cache:
                (image, report), hit = cached(
                    "protect",
                    lambda: (program.image.fingerprint(), self.config.cache_key()),
                    lambda: self._protect(program),
                )
            else:
                (image, report), hit = self._protect(program), False
            if hit:
                span.set_attribute("cached", True)
            span.set_attribute("chains", len(report.chains))
        recorder = get_recorder()
        if recorder.enabled:
            recorder.record(
                "protect",
                program=program.name,
                strategy=self.config.strategy,
                chains=len(report.chains),
                cached=hit,
            )
        return ProtectedProgram(program, image, report, cached=hit)

    def _protect(self, program: Program) -> Tuple[BinaryImage, ProtectionReport]:
        config = self.config
        metrics = get_metrics()
        tracer = get_tracer()
        metrics.counter("protect.runs").inc()
        image = program.image.clone()
        report = ProtectionReport(program.name, config.strategy)
        rng = random.Random(config.seed)

        # -- step 1: verification code selection & translation ----------
        names = config.verification_functions
        if not names:
            names = [
                select_verification_function(program, config.time_threshold)
            ]
        for name in names:
            if name not in program.functions:
                raise ProtectError(f"unknown function {name!r}")

        ropdata = _Allocator(ROPDATA_BASE)
        compilers: Dict[str, RopCompiler] = {}
        chains: Dict[str, RopChain] = {}
        for name in names:
            frame_cell = ropdata.alloc(4)
            resume_cell = ropdata.alloc(4)
            compiler = RopCompiler(frame_cell, resume_cell)
            compilers[name] = compiler
            chains[name] = compiler.compile(program.functions[name])

        # -- step 2: stub slots + entry redirection ---------------------
        stub_addrs = {
            name: STUBS_BASE + index * _STUB_SLOT for index, name in enumerate(names)
        }
        for name in names:
            self._redirect_entry(image, name, stub_addrs[name])

        # -- step 3: gadget mapping --------------------------------------
        existing = find_gadgets(image)
        catalog = GadgetCatalog(existing)
        report.existing_gadgets = len(existing)
        metrics.counter("protect.gadgets_existing").inc(len(existing))

        required = {}
        for chain in chains.values():
            for kind in chain.required_kinds():
                required.setdefault(kind.key(), kind)
        # A kind is satisfied only by a near-return gadget: far-return
        # gadgets are excluded from fixed-shape (probabilistic)
        # resolution and from pivot kinds, so they cannot be the sole
        # provider.
        missing = [
            kind
            for kind in required.values()
            if not any(not g.far for g in catalog.of_kind(kind))
        ]
        if missing:
            gcode, inserted = emit_standard_gadgets(missing, GADGETS_BASE)
            image.add_section(Section(".gadgets", GADGETS_BASE, gcode, Perm.RX))
            for gadget in inserted:
                catalog.add(gadget)
            report.inserted_gadgets = len(inserted)
            metrics.counter("protect.gadgets_inserted").inc(len(inserted))

        protect_addrs = config.protect_addresses
        if protect_addrs is None:
            protect_addrs = self._default_protect_targets(image)
        report.protected_instruction_count = len(protect_addrs)
        report.protected_addresses = sorted(set(protect_addrs))
        target_bytes = set(protect_addrs)
        for gadget in existing:
            if any(addr in target_bytes for addr in gadget.span()):
                catalog.mark_preferred(gadget.address)
        report.preferred_gadgets = len(catalog.preferred)
        metrics.gauge("protect.gadgets_preferred").set(len(catalog.preferred))
        metrics.gauge("protect.protected_instructions").set(len(protect_addrs))

        # -- steps 4-5: strategy-specific serialization + stubs ----------
        chain_area = _Allocator(ROPCHAINS_BASE)
        enc_area = _Allocator(ENC_BASE)
        stub_specs: Dict[str, dict] = {}
        rt_needed = config.strategy != STRATEGY_CLEARTEXT or config.guard_chains

        rt_code = b""
        rt_spans = {}
        if rt_needed:
            rt_functions = [
                runtime.rt_xor_decrypt(),
                runtime.rt_rc4_decrypt(),
                runtime.rt_lincomb(),
                runtime.rt_guard(),
            ]
            rt_code, spans, _ = compile_functions(
                rt_functions, base=RT_BASE, entry_main=None
            )
            image.add_section(Section(".parallaxrt", RT_BASE, rt_code, Perm.RX))
            rt_spans = {fname: RT_BASE + start for fname, (start, _end) in spans.items()}

        span_map = catalog.span_map()
        for name in names:
            with tracer.span("emit_chain", function=name) as span:
                record = self._emit_chain(
                    name,
                    chains[name],
                    catalog,
                    rng,
                    chain_area,
                    enc_area,
                    ropdata,
                    rt_spans,
                    stub_addrs[name],
                    stub_specs,
                    span_map,
                )
                span.set_attribute("words", record.word_count)
            report.chains.append(record)
            metrics.counter("protect.chains_emitted").inc()
            metrics.counter("protect.chain_words_total").inc(record.word_count)
            metrics.histogram("protect.chain_words").observe(record.word_count)
            metrics.histogram("protect.chain_overlapping").observe(
                record.overlapping_used
            )

        # §VI-C chain guards: checksum the (data-resident) chain
        # machinery from every stub.  Computed now, when the guarded
        # section contents are final.
        pre_calls: Tuple = ()
        if config.guard_chains:
            regions = [(RT_BASE, bytes(rt_code))]
            if enc_area.blob:
                regions.append((ENC_BASE, bytes(enc_area.blob)))
            if config.strategy == STRATEGY_CLEARTEXT and chain_area.blob:
                regions.append((ROPCHAINS_BASE, bytes(chain_area.blob)))
            guard_addr = rt_spans["rt_guard"]
            pre_calls = tuple(
                (
                    guard_addr,
                    (
                        base_addr,
                        len(blob) // 4,
                        runtime.checksum_words_reference(blob),
                    ),
                )
                for base_addr, blob in regions
            )
            report.add_note(
                f"chain guards over {len(pre_calls)} data region(s) (§VI-C)"
            )

        stub_section = bytearray(_STUB_SLOT * len(names))
        for index, name in enumerate(names):
            spec = stub_specs[name]
            stub = build_loader_stub(
                stub_addrs[name],
                frame_cell=spec["frame_cell"],
                resume_cell=spec["resume_cell"],
                chain_addr=spec["chain_addr"],
                decrypt_call=spec["decrypt_call"],
                decrypt_args=spec["decrypt_args"],
                pre_calls=pre_calls,
            )
            blob = stub.code
            if len(blob) > _STUB_SLOT:
                raise ProtectError(f"stub for {name} exceeds its slot")
            stub_section[index * _STUB_SLOT : index * _STUB_SLOT + len(blob)] = blob
        image.add_section(Section(".stubs", STUBS_BASE, bytes(stub_section), Perm.RX))
        image.add_section(
            Section(".ropdata", ROPDATA_BASE, bytes(ropdata.blob), Perm.RW)
        )
        image.add_section(
            Section(".ropchains", ROPCHAINS_BASE, bytes(chain_area.blob), Perm.RW)
        )
        if enc_area.blob:
            image.add_section(Section(".ropcenc", ENC_BASE, bytes(enc_area.blob), Perm.R))

        image.metadata["parallax"] = {
            "strategy": config.strategy,
            "verification_functions": list(names),
        }
        return image, report

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _redirect_entry(image: BinaryImage, name: str, stub_addr: int) -> None:
        symbol = image.symbols[name]
        if symbol.size < 5:
            raise ProtectError(f"function {name} too small to redirect")
        rel = stub_addr - (symbol.vaddr + 5)
        image.write(symbol.vaddr, b"\xe9" + (rel & 0xFFFFFFFF).to_bytes(4, "little"))

    @staticmethod
    def _default_protect_targets(image: BinaryImage) -> List[int]:
        """Addresses of likely attack targets: control flow + syscalls."""
        targets = []
        for section in image.executable_sections():
            for insn in decode_all_cached(
                bytes(section.data), address=section.vaddr, stop_on_error=True
            ):
                if insn.is_control_flow or insn.mnemonic == "int":
                    targets.extend(range(insn.address, insn.address + insn.length))
        return targets

    def _emit_chain(
        self,
        name: str,
        chain: RopChain,
        catalog: GadgetCatalog,
        rng: random.Random,
        chain_area: _Allocator,
        enc_area: _Allocator,
        ropdata: _Allocator,
        rt_spans: Dict[str, int],
        stub_addr: int,
        stub_specs: Dict[str, dict],
        span_map: Optional[Dict[int, int]] = None,
    ) -> ChainRecord:
        config = self.config
        strategy = config.strategy

        if strategy == STRATEGY_LINEAR:
            return self._emit_linear(
                name, chain, catalog, rng, chain_area, enc_area, ropdata,
                rt_spans, stub_addr, stub_specs, span_map,
            )

        resolved = chain.resolve(catalog)
        # Two-pass: layout depends on the base address only through the
        # label words, whose count is fixed, so size is stable.
        size = resolved.byte_size
        chain_addr = chain_area.alloc(size)
        payload = resolved.to_bytes(chain_addr)

        overlapping = sum(
            1 for addr in resolved.gadget_addresses() if addr in catalog.preferred
        )
        decrypt_call = None
        decrypt_args: Tuple[int, ...] = ()

        if strategy == STRATEGY_CLEARTEXT:
            offset = chain_addr - chain_area.base
            chain_area.blob[offset : offset + len(payload)] = payload
        elif strategy == STRATEGY_XOR:
            seed = rng.randrange(1, 1 << 32)
            enc = xor_crypt_words(seed, payload)
            enc_addr = enc_area.alloc(len(enc), init=enc)
            decrypt_call = rt_spans["rt_xor_decrypt"]
            decrypt_args = (chain_addr, enc_addr, len(payload) // 4, seed)
        elif strategy == STRATEGY_RC4:
            key = bytes(rng.randrange(256) for _ in range(16))
            enc = rc4_crypt(key, payload)
            enc_addr = enc_area.alloc(len(enc), init=enc)
            workspace = ropdata.alloc(runtime.RC4_WORKSPACE_SIZE, init=key)
            decrypt_call = rt_spans["rt_rc4_decrypt"]
            decrypt_args = (chain_addr, enc_addr, len(payload), workspace)
        else:
            raise ProtectError(f"unhandled strategy {strategy!r}")

        stub_specs[name] = {
            "frame_cell": _frame_cell_of(chain),
            "resume_cell": _resume_cell_of(chain),
            "chain_addr": chain_addr,
            "decrypt_call": decrypt_call,
            "decrypt_args": decrypt_args,
        }
        return ChainRecord(
            function=name,
            chain_addr=chain_addr,
            word_count=resolved.word_count,
            gadget_addresses=resolved.gadget_addresses(),
            overlapping_used=overlapping,
            stub_addr=stub_addr,
            gadget_spans=_spans_for(resolved.gadget_addresses(), span_map),
        )

    def _emit_linear(
        self,
        name: str,
        chain: RopChain,
        catalog: GadgetCatalog,
        rng: random.Random,
        chain_area: _Allocator,
        enc_area: _Allocator,
        ropdata: _Allocator,
        rt_spans: Dict[str, int],
        stub_addr: int,
        stub_specs: Dict[str, dict],
        span_map: Optional[Dict[int, int]] = None,
    ) -> ChainRecord:
        """§V-B probabilistic chains: N fixed-shape variants, an index
        table, and runtime regeneration by linear combination."""
        config = self.config
        n = config.n_variants

        variants = [
            chain.resolve(catalog, rng=rng, fixed_shape=True) for _ in range(n)
        ]
        sizes = {variant.byte_size for variant in variants}
        if len(sizes) != 1:
            raise ProtectError("linear variants must have identical shape")
        size = sizes.pop()
        chain_addr = chain_area.alloc(size)

        table = bytearray()
        gadget_addresses = []
        for variant in variants:
            payload = variant.to_bytes(chain_addr)
            table += payload  # canonical basis: index mask == word value
            gadget_addresses.extend(variant.gadget_addresses())
        table_addr = enc_area.alloc(len(table), init=bytes(table))

        ctrl = bytearray(runtime.LC_CTRL_SIZE)
        seed = rng.randrange(1, 1 << 32)
        ctrl[0:4] = seed.to_bytes(4, "little")
        ctrl[4:8] = (n - 1).to_bytes(4, "little")
        for bit in range(32):
            offset = runtime.LC_BASIS_OFFSET + 4 * bit
            ctrl[offset : offset + 4] = (1 << bit).to_bytes(4, "little")
        ctrl_addr = ropdata.alloc(len(ctrl), init=bytes(ctrl))

        overlapping = sum(
            1 for addr in gadget_addresses if addr in catalog.preferred
        )
        stub_specs[name] = {
            "frame_cell": _frame_cell_of(chain),
            "resume_cell": _resume_cell_of(chain),
            "chain_addr": chain_addr,
            "decrypt_call": rt_spans["rt_lincomb"],
            "decrypt_args": (chain_addr, table_addr, size // 4, ctrl_addr),
        }
        return ChainRecord(
            function=name,
            chain_addr=chain_addr,
            word_count=size // 4,
            gadget_addresses=gadget_addresses,
            overlapping_used=overlapping,
            stub_addr=stub_addr,
            variants=n,
            gadget_spans=_spans_for(gadget_addresses, span_map),
        )


def _spans_for(
    addresses: Iterable[int], span_map: Optional[Dict[int, int]]
) -> Dict[int, int]:
    """Byte spans for the distinct gadgets a chain dispatches through."""
    if not span_map:
        return {}
    return {a: span_map[a] for a in set(addresses) if a in span_map}


def _frame_cell_of(chain: RopChain) -> int:
    if chain.frame_cell is None:
        raise ProtectError("chain missing frame cell (not compiler-built?)")
    return chain.frame_cell


def _resume_cell_of(chain: RopChain) -> int:
    if chain.resume_cell is None:
        raise ProtectError("chain missing resume cell (not compiler-built?)")
    return chain.resume_cell


class ProtectResult(NamedTuple):
    """One protect request's outcome (:func:`protect_request`).

    The runs, ``divergence`` (``run.divergence(baseline)``) and the
    unrounded Fig. 5b ``overhead_percent`` are ``None`` unless verified;
    the overhead also when the baseline ran no cycles.
    """

    protected: ProtectedProgram
    baseline: Optional[RunResult] = None
    run: Optional[RunResult] = None
    divergence: Optional[str] = None
    overhead_percent: Optional[float] = None

    @property
    def behaviour_preserved(self) -> Optional[bool]:
        return None if self.run is None else self.divergence is None


def protect_request(
    program: Program,
    config: Optional[ProtectConfig],
    *,
    verify: bool = True,
    engine: Optional[str] = None,
    max_steps: int = RUN_MAX_STEPS,
    use_cache: bool = True,
) -> ProtectResult:
    """One protect request, in a fixed order: the baseline
    ``program.run``, :meth:`Parallax.protect` (with §VII-B selection
    when ``config`` names no function), then ``protected.run``.  Both
    runs share ``engine`` and ``max_steps``; ``verify=False`` only
    protects."""
    if not verify:
        return ProtectResult(Parallax(config).protect(program, use_cache=use_cache))
    baseline = program.run(max_steps=max_steps, engine=engine)
    protected = Parallax(config).protect(program, use_cache=use_cache)
    run = protected.run(max_steps=max_steps, engine=engine)
    overhead = 100 * (run.cycles / baseline.cycles - 1) if baseline.cycles else None
    return ProtectResult(protected, baseline, run, run.divergence(baseline), overhead)
