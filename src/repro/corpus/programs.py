"""The six corpus programs standing in for the paper's test set.

Each build function returns a runnable :class:`Program` whose
instruction mix is calibrated to the real program's character:

========  =====================================================  ==========
program   flavour                                                mix
========  =====================================================  ==========
wget      network client: header parsing, content copy, CRC      branchy I/O
nginx     server: request tokenizing, route table, responses    branch-dense
bzip2     block compressor: RLE, block sort, CRC                 memory/loop
gzip      stream compressor: LZ matching, checksums              memory/loop
gcc       compiler: lexer, symbol table, RPN evaluation           largest, most diverse
lame      encoder: fixed-point DSP, quantization                  mul/shift, few immediates
========  =====================================================  ==========

The mix drives the Fig. 6 protectability ordering (gcc highest, lame
lowest).  Every program also carries a ``digest_*`` function — an
operation-rich, rarely-called statistics helper that the §VII-B
selection algorithm picks as verification code; its branchiness is
tuned per program so the Fig. 5a chain slowdowns span the paper's
spread (wget's loop-and-branch digest translates into the slowest
chain, gcc's straight-line digest into the fastest).

Workload sizes put each program at a few million emulated cycles with
the digest contributing well under the paper's 2% profile threshold, so
whole-program protection overheads land in Fig. 5b territory.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..ropc import CodegenOptions, ir
from ..x86.registers import EAX, EBX, ECX, EDX, EDI, ESI
from . import builders
from .generator import FunctionGenerator, MixProfile
from .program import DATA_BASE, DataBuilder, Program, RODATA_BASE, call_const, input_bytes

PROGRAM_NAMES = ("wget", "nginx", "bzip2", "gzip", "gcc", "lame")


def _acc_xor_eax(f: ir.IRFunction) -> None:
    """Fold the last call's result into the ESI accumulator."""
    f.emit(ir.BinOp("xor", ESI, EAX))


def _count_down_loop(f: ir.IRFunction, label: str) -> None:
    """Decrement EDI; loop to ``label`` while non-zero."""
    f.emit(ir.Const(EDX, 1))
    f.emit(ir.BinOp("sub", EDI, EDX))
    f.emit(ir.Branch("ne", EDI, 0, label))


def _call_digest(f: ir.IRFunction, name: str, cell: int, every: int = 1) -> None:
    """digest(acc, block_counter, cell) with the accumulator updated.

    ``every`` (a power of two) calls the digest only on blocks whose
    counter is a multiple of it — how real programs checksum per N
    blocks, and the knob that keeps verification cost inside the Fig. 5b
    envelope.
    """
    skip = None
    if every > 1:
        skip = f"skip_digest_{len(f.body)}"
        f.emit(ir.Mov(EDX, EDI))
        f.emit(ir.Const(ECX, every - 1))
        f.emit(ir.BinOp("and", EDX, ECX))
        f.emit(ir.Branch("ne", EDX, 0, skip))
    f.emit(ir.Mov(EBX, ESI))
    f.emit(ir.Mov(ECX, EDI))
    f.emit(ir.Const(EDX, cell))
    f.emit(ir.Call(EAX, name, (EBX, ECX, EDX)))
    f.emit(ir.Mov(ESI, EAX))
    if skip is not None:
        f.emit(ir.Label(skip))


def _finish_main(f: ir.IRFunction, data: DataBuilder) -> None:
    """Write the accumulator as hex to stdout; exit with a folded code."""
    f.emit(ir.Mov(EBX, ESI))
    f.emit(ir.Const(ECX, data.addr("hexbuf")))
    f.emit(ir.Call(EAX, "to_hex", (EBX, ECX)))
    call_const(f, "write_buf", data.addr("hexbuf"), 8)
    f.emit(ir.Mov(EAX, ESI))
    f.emit(ir.Mov(ECX, ESI))
    f.emit(ir.Shift("shr", ECX, 16))
    f.emit(ir.BinOp("xor", EAX, ECX))
    f.emit(ir.Const(ECX, 63))
    f.emit(ir.BinOp("and", EAX, ECX))
    f.emit(ir.Const(ECX, 1))
    f.emit(ir.BinOp("or", EAX, ECX))
    f.emit(ir.Ret())


def _antidebug_prelude(f: ir.IRFunction) -> None:
    """Refuse to run under a debugger (the paper's §IV-A scenario)."""
    f.emit(ir.Call(EAX, "ptrace_detect"))
    f.emit(ir.Branch("ne", EAX, 0, "nodbg"))
    f.emit(ir.Const(EAX, 99))
    f.emit(ir.Ret())
    f.emit(ir.Label("nodbg"))


def _common_functions() -> List[ir.IRFunction]:
    return [
        builders.to_hex(),
        builders.write_buf(),
        builders.ptrace_detect(),
    ]


# ----------------------------------------------------------------------
# wget — branchy transfer loop; digest has the branchiest (slowest) chain
# ----------------------------------------------------------------------

def build_wget(seed: int = 1001, blocks: int = 4, chunks: int = 150) -> Program:
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    header = b"HTTP/1.1 200 OK\r\nContent-Length: 2048\r\nServer: synth/1.0\r\n\r\n"
    content = input_bytes(seed, 2048)
    hdr_addr = rodata.add("header", header)
    content_addr = rodata.add("content", content)
    out_addr = data.reserve("outbuf", 2048)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    main = ir.IRFunction("main", params=0)
    _antidebug_prelude(main)
    main.emit(ir.Const(ESI, 0xC0FFEE))
    main.emit(ir.Const(EDI, blocks))
    main.emit(ir.Label("request"))
    call_const(main, "hash_string", hdr_addr, len(header))
    _acc_xor_eax(main)
    call_const(main, "parse_uint", hdr_addr + 34, 4)
    main.emit(ir.BinOp("add", ESI, EAX))
    for _ in range(chunks):  # the transfer: copy + checksum each chunk
        call_const(main, "memcpy_words", out_addr, content_addr, 512)
        call_const(main, "checksum_words", out_addr, 512)
        _acc_xor_eax(main)
    _call_digest(main, "digest_wget", stats)
    _count_down_loop(main, "request")
    # cold second call sites (selection fan-in)
    call_const(main, "digest_wget", 0xDEAD, 7, stats)
    _acc_xor_eax(main)
    call_const(main, "crc_step", 0xBEEF, 3)
    _acc_xor_eax(main)
    call_const(main, "find_byte", hdr_addr, len(header), 0x0D)
    main.emit(ir.BinOp("add", ESI, EAX))
    _finish_main(main, data)

    functions = [
        main,
        builders.make_digest("digest_wget", rounds=32, branchy=True),
        builders.hash_string(),
        builders.parse_uint(),
        builders.memcpy_words(),
        builders.checksum_words(),
        builders.crc_step(),
        builders.rotate_xor(),
        builders.find_byte(),
        builders.strlen8(),
        builders.adler_words(),
        *_common_functions(),
    ]
    profile = MixProfile(
        branch=0.8, memory=0.6, wide_const=0.45, mul_shift=0.2, loop=0.4,
        call_density=0.25, functions=48,
    )
    functions += FunctionGenerator(profile, scratch, seed).generate("wget_fill")
    return Program(
        "wget", functions, rodata, data,
        options=CodegenOptions(wide_immediates=False),
        candidates=["digest_wget", "crc_step", "rotate_xor"],
    )


# ----------------------------------------------------------------------
# nginx — request routing; medium-branchy digest
# ----------------------------------------------------------------------

def build_nginx(seed: int = 2002, blocks: int = 12, requests: int = 40) -> Program:
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    request = b"GET /static/index.html HTTP/1.1\r\nHost: synth\r\n\r\n"
    req_addr = rodata.add("request", request)
    routes = b"".join(
        ((i * 0x9E3779B9) & 0xFFFFFFFF).to_bytes(4, "little") for i in range(16)
    )
    routes_addr = rodata.add("routes", routes)
    resp_addr = data.reserve("response", 1024)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    main = ir.IRFunction("main", params=0)
    _antidebug_prelude(main)
    main.emit(ir.Const(ESI, 0x1CEB00DA))
    main.emit(ir.Const(EDI, blocks))
    main.emit(ir.Label("batch"))
    for _ in range(requests):
        call_const(main, "find_byte", req_addr, len(request), 0x20)
        main.emit(ir.BinOp("add", ESI, EAX))
        call_const(main, "hash_string", req_addr + 4, 18)
        _acc_xor_eax(main)
        # route = table_lookup(routes, hash & 15, 16)
        main.emit(ir.Mov(ECX, EAX))
        main.emit(ir.Const(EDX, 15))
        main.emit(ir.BinOp("and", ECX, EDX))
        main.emit(ir.Const(EBX, routes_addr))
        main.emit(ir.Const(EDX, 16))
        main.emit(ir.Call(EAX, "table_lookup", (EBX, ECX, EDX)))
        _acc_xor_eax(main)
        call_const(main, "memset_words", resp_addr, 0x20202020, 256)
        call_const(main, "adler_words", resp_addr, 256)
        main.emit(ir.BinOp("add", ESI, EAX))
    _call_digest(main, "digest_nginx", stats, every=8)
    _count_down_loop(main, "batch")
    call_const(main, "digest_nginx", 0x5157, 9, stats)
    _acc_xor_eax(main)
    call_const(main, "mix32", 0x12345678)
    main.emit(ir.BinOp("add", ESI, EAX))
    _finish_main(main, data)

    functions = [
        main,
        builders.make_digest("digest_nginx", rounds=12, branchy=True),
        builders.find_byte(),
        builders.hash_string(),
        builders.table_lookup(),
        builders.memset_words(),
        builders.adler_words(),
        builders.rotate_xor(),
        builders.mix32(),
        builders.token_kind(),
        builders.parse_uint(),
        *_common_functions(),
    ]
    profile = MixProfile(
        branch=0.95, memory=0.7, wide_const=0.5, mul_shift=0.2, loop=0.35,
        call_density=0.3, functions=72,
    )
    functions += FunctionGenerator(profile, scratch, seed).generate("ngx_fill")
    return Program(
        "nginx", functions, rodata, data,
        options=CodegenOptions(wide_immediates=False),
        candidates=["digest_nginx", "mix32", "table_lookup"],
    )


# ----------------------------------------------------------------------
# bzip2 — block compression; loop-heavy digest
# ----------------------------------------------------------------------

def build_bzip2(seed: int = 3003, blocks: int = 8, reps: int = 10) -> Program:
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    block = input_bytes(seed, 1024, alphabet=b"aaabbbcccddeeffg")
    block_addr = rodata.add("block", block)
    words = input_bytes(seed + 1, 256)
    words_addr = data.add("wordbuf", words)
    rle_addr = data.reserve("rlebuf", 4096)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    main = ir.IRFunction("main", params=0)
    main.emit(ir.Const(ESI, 0xB21B2))
    main.emit(ir.Const(EDI, blocks))
    main.emit(ir.Label("blocks"))
    for _ in range(reps):
        call_const(main, "rle_encode", block_addr, 1024, rle_addr)
        main.emit(ir.BinOp("add", ESI, EAX))
        call_const(main, "sort_words", words_addr, 64)
        call_const(main, "checksum_words", words_addr, 64)
        _acc_xor_eax(main)
        call_const(main, "adler_words", words_addr, 64)
        main.emit(ir.BinOp("add", ESI, EAX))
    _call_digest(main, "digest_bzip2", stats, every=4)
    _count_down_loop(main, "blocks")
    call_const(main, "digest_bzip2", 0x1234, 99, stats)
    _acc_xor_eax(main)
    call_const(main, "checksum_words", words_addr, 8)
    _acc_xor_eax(main)
    _finish_main(main, data)

    functions = [
        main,
        builders.make_digest("digest_bzip2", rounds=12, branchy=True),
        builders.rle_encode(),
        builders.sort_words(),
        builders.checksum_words(),
        builders.crc_step(),
        builders.adler_words(),
        builders.memcpy_words(),
        builders.popcount(),
        *_common_functions(),
    ]
    profile = MixProfile(
        branch=0.6, memory=0.95, wide_const=0.35, mul_shift=0.3, loop=0.7,
        call_density=0.2, functions=34,
    )
    functions += FunctionGenerator(profile, scratch, seed).generate("bz_fill")
    return Program(
        "bzip2", functions, rodata, data,
        options=CodegenOptions(wide_immediates=False),
        candidates=["digest_bzip2", "crc_step", "checksum_words"],
    )


# ----------------------------------------------------------------------
# gzip — stream compression; medium digest
# ----------------------------------------------------------------------

def build_gzip(seed: int = 4004, blocks: int = 8, positions: int = 40) -> Program:
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    stream = input_bytes(seed, 2048, alphabet=b"abcabcababcdcdcd")
    stream_addr = rodata.add("stream", stream)
    data.reserve("window", 1024)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    main = ir.IRFunction("main", params=0)
    main.emit(ir.Const(ESI, 0x6E1B))
    main.emit(ir.Const(EDI, blocks))
    main.emit(ir.Label("window"))
    for position in range(positions):
        call_const(
            main, "lz_match_len",
            stream_addr + 3 * (position % 600), stream_addr, 16,
        )
        main.emit(ir.BinOp("add", ESI, EAX))
    for _ in range(24):
        call_const(main, "adler_words", stream_addr, 512)
        _acc_xor_eax(main)
        call_const(main, "checksum_words", stream_addr, 512)
        _acc_xor_eax(main)
        call_const(main, "hash_string", stream_addr, 256)
        _acc_xor_eax(main)
    _call_digest(main, "digest_gzip", stats, every=4)
    _count_down_loop(main, "window")
    call_const(main, "digest_gzip", 0x6789, 2, stats)
    main.emit(ir.BinOp("add", ESI, EAX))
    _finish_main(main, data)

    functions = [
        main,
        builders.make_digest("digest_gzip", rounds=10, branchy=True),
        builders.lz_match_len(),
        builders.adler_words(),
        builders.checksum_words(),
        builders.rotate_xor(),
        builders.hash_string(),
        builders.crc_step(),
        builders.memcpy_words(),
        *_common_functions(),
    ]
    profile = MixProfile(
        branch=0.7, memory=0.85, wide_const=0.4, mul_shift=0.35, loop=0.6,
        call_density=0.2, functions=30,
    )
    functions += FunctionGenerator(profile, scratch, seed).generate("gz_fill")
    return Program(
        "gzip", functions, rodata, data,
        options=CodegenOptions(wide_immediates=False),
        candidates=["digest_gzip", "adler_words", "checksum_words"],
    )


# ----------------------------------------------------------------------
# gcc — compiler passes; straight-line digest (cheapest chain)
# ----------------------------------------------------------------------

def build_gcc(seed: int = 5005, blocks: int = 4, passes: int = 90) -> Program:
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    source = b"int foo42 = bar + 17 * baz; while (x < 100) x = x + qux(7);"
    src_addr = rodata.add("source", source)
    rpn = [5, 9, 1, 3, 3, 12, 2, 0x55, 4, 7, 1]
    rpn_words = b"".join(t.to_bytes(4, "little") for t in rpn)
    rpn_addr = rodata.add("rpn", rpn_words)
    symtab_addr = data.reserve("symtab", 64 * 8 + 8)  # +8: probe-budget slot
    stack_addr = data.reserve("evalstack", 256)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    main = ir.IRFunction("main", params=0)
    main.emit(ir.Const(ESI, 0x6CC))
    main.emit(ir.Const(EDI, blocks))
    main.emit(ir.Label("unit"))
    for index in range(passes):
        # lex a character, hash a source span, exercise the symbol table
        call_const(main, "token_kind", 32 + (index * 7) % 90)
        main.emit(ir.BinOp("add", ESI, EAX))
        call_const(main, "hash_string", src_addr + (index % 30), 24)
        _acc_xor_eax(main)
        main.emit(ir.Mov(EBX, ESI))
        main.emit(ir.Const(ECX, 0xFFF))
        main.emit(ir.BinOp("and", EBX, ECX))
        main.emit(ir.Const(EDX, 1))
        main.emit(ir.BinOp("or", EBX, EDX))
        main.emit(ir.Mov(ECX, EBX))
        main.emit(ir.Mov(EDX, EDI))
        main.emit(ir.Const(EBX, symtab_addr))
        main.emit(ir.Call(EAX, "sym_insert", (EBX, ECX, EDX)))
        main.emit(ir.Const(EBX, symtab_addr))
        main.emit(ir.Call(EAX, "sym_find", (EBX, ECX)))
        main.emit(ir.BinOp("add", ESI, EAX))
        for _ in range(4):
            call_const(main, "rpn_eval", rpn_addr, len(rpn), stack_addr)
            _acc_xor_eax(main)
        call_const(main, "range_sum", 1, 400)
        main.emit(ir.BinOp("add", ESI, EAX))
    _call_digest(main, "digest_gcc", stats, every=4)
    _count_down_loop(main, "unit")
    call_const(main, "digest_gcc", 0xAA55AA55, 1, stats)
    _acc_xor_eax(main)
    call_const(main, "parse_uint", src_addr + 10, 2)
    main.emit(ir.BinOp("add", ESI, EAX))
    call_const(main, "abs32", 0x80001234)
    main.emit(ir.BinOp("add", ESI, EAX))
    _finish_main(main, data)

    functions = [
        main,
        builders.make_digest("digest_gcc", rounds=0, branchy=False, use_mul=True),
        builders.token_kind(),
        builders.hash_string(),
        builders.sym_insert(),
        builders.sym_find(),
        builders.rpn_eval(),
        builders.mix32(),
        builders.parse_uint(),
        builders.abs32(),
        builders.clip(),
        builders.range_sum(),
        builders.popcount(),
        builders.table_lookup(),
        *_common_functions(),
    ]
    profile = MixProfile(
        branch=1.2, memory=0.5, wide_const=0.7, mul_shift=0.25, loop=0.35,
        call_density=0.35, functions=130, size=(5, 12),
    )
    functions += FunctionGenerator(profile, scratch, seed).generate("gcc_fill")
    return Program(
        "gcc", functions, rodata, data,
        options=CodegenOptions(wide_immediates=True),
        candidates=["digest_gcc", "mix32", "abs32"],
    )


# ----------------------------------------------------------------------
# lame — fixed-point DSP; short digest (RC4 setup dominates, as in paper)
# ----------------------------------------------------------------------

def build_lame(seed: int = 6006, blocks: int = 8, frames: int = 48) -> Program:
    rodata = DataBuilder(RODATA_BASE)
    data = DataBuilder(DATA_BASE)
    samples = input_bytes(seed, 256 * 4)
    window = input_bytes(seed + 1, 256 * 4)
    samples_addr = data.add("samples", samples)
    window_addr = rodata.add("window", window)
    data.reserve("hexbuf", 16)
    stats = data.reserve("stats", 8)
    scratch = data.reserve("scratch", 512)

    main = ir.IRFunction("main", params=0)
    main.emit(ir.Const(ESI, 0x1A3E))
    main.emit(ir.Const(EDI, blocks))
    main.emit(ir.Label("frames"))
    for _ in range(frames):
        call_const(main, "dot_product", samples_addr, window_addr, 256)
        _acc_xor_eax(main)
        main.emit(ir.Mov(EBX, EAX))
        main.emit(ir.Const(ECX, 0x327))
        main.emit(ir.Const(EDX, 64))
        main.emit(ir.Call(EAX, "quantize", (EBX, ECX, EDX)))
        main.emit(ir.BinOp("add", ESI, EAX))
        main.emit(ir.Mov(EBX, ESI))
        main.emit(ir.Call(EAX, "bit_reverse", (EBX,)))
        _acc_xor_eax(main)
    _call_digest(main, "digest_lame", stats, every=8)
    _count_down_loop(main, "frames")
    call_const(main, "digest_lame", 0x4321, 8, stats)
    _acc_xor_eax(main)
    call_const(main, "abs32", 0x81234567)
    main.emit(ir.BinOp("add", ESI, EAX))
    call_const(main, "popcount", 0xF0F0A5A5)
    _acc_xor_eax(main)
    _finish_main(main, data)

    functions = [
        main,
        builders.make_digest("digest_lame", rounds=2, branchy=True, use_mul=True),
        builders.dot_product(),
        builders.quantize(),
        builders.bit_reverse(),
        builders.abs32(),
        builders.popcount(),
        builders.clip(),
        builders.memset_words(),
        *_common_functions(),
    ]
    profile = MixProfile(
        branch=0.3, memory=0.5, wide_const=0.18, mul_shift=1.3, loop=0.7,
        call_density=0.15, functions=42, size=(5, 11),
    )
    functions += FunctionGenerator(profile, scratch, seed).generate("lame_fill")
    return Program(
        "lame", functions, rodata, data,
        options=CodegenOptions(wide_immediates=False, xor_zero_idiom=True),
        candidates=["digest_lame", "quantize", "abs32"],
    )


BUILDERS: Dict[str, Callable[[], Program]] = {
    "wget": build_wget,
    "nginx": build_nginx,
    "bzip2": build_bzip2,
    "gzip": build_gzip,
    "gcc": build_gcc,
    "lame": build_lame,
}


def build_program(name: str) -> Program:
    """Build one corpus program by name."""
    return BUILDERS[name]()


def build_program_cached(name: str) -> Program:
    """Content-addressed :func:`build_program`.

    Corpus generation is pure code + fixed seeds, so the program name is
    the whole input (the key rule adds the source digest), and the
    corpus-determinism test suite guards the fixed-seed half of the
    assumption.  ``corpus`` is a fresh namespace: every hit is a new
    :class:`Program`, so callers may mutate the result freely.
    """
    from ..cache import cached

    program, _hit = cached("corpus", (name,), lambda: build_program(name))
    return program
