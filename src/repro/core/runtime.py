"""Runtime-support routines inserted into protected binaries.

Dynamic function chains (§V-B) are generated/decrypted *at runtime by
the protected process itself*.  These routines are written in our IR
and compiled natively into a ``.parallaxrt`` section, so their cost is
measured by the emulator exactly like any other code — the Fig. 5
slowdown numbers come out of honest execution, not a cost model.

* ``rt_xor_decrypt``  — xorshift32 word-stream decryption;
* ``rt_rc4_decrypt``  — RC4 (KSA + PRGA) with byte operations;
* ``rt_lincomb``      — probabilistic chain generation by linear
  combination over GF(2): per chain word, pick an index array with an
  LCG and xor together the basis vectors it selects (§V-B's
  :math:`A_1..A_N` construction with the canonical basis).
"""

from __future__ import annotations

from ..ropc import ir
from ..x86.registers import EAX, EBX, ECX, EDX, EDI, ESI

#: rt_rc4_decrypt workspace layout (offsets into the workspace blob).
RC4_KEY_OFFSET = 0          # 16-byte key
RC4_SBOX_OFFSET = 16        # 256-byte S-box scratch
RC4_K_SLOT = 272            # output-cursor spill slot (word)
RC4_WORKSPACE_SIZE = 288

#: rt_lincomb control-block layout.
LC_STATE_OFFSET = 0         # LCG state (word, updated in place)
LC_MASK_OFFSET = 4          # nvariants - 1 (power of two minus one)
LC_BASIS_OFFSET = 8         # 32 basis words
LC_CTRL_SIZE = 8 + 32 * 4

LCG_MUL = 1103515245
LCG_ADD = 12345


def rt_xor_decrypt() -> ir.IRFunction:
    """rt_xor_decrypt(dst, src, nwords, seed).

    Word-wise xor with the xorshift32 keystream (matches
    :mod:`repro.crypto.xorstream`).
    """
    f = ir.IRFunction("rt_xor_decrypt", params=4)
    f.emit(ir.Param(EDI, 0))            # dst
    f.emit(ir.Param(ESI, 1))            # src
    f.emit(ir.Param(ECX, 2))            # nwords
    f.emit(ir.Param(EBX, 3))            # state
    f.emit(ir.Label("loop"))
    f.emit(ir.Branch("eq", ECX, 0, "done"))
    # state = xorshift32(state)
    f.emit(ir.Mov(EDX, EBX))
    f.emit(ir.Shift("shl", EDX, 13))
    f.emit(ir.BinOp("xor", EBX, EDX))
    f.emit(ir.Mov(EDX, EBX))
    f.emit(ir.Shift("shr", EDX, 17))
    f.emit(ir.BinOp("xor", EBX, EDX))
    f.emit(ir.Mov(EDX, EBX))
    f.emit(ir.Shift("shl", EDX, 5))
    f.emit(ir.BinOp("xor", EBX, EDX))
    # *dst++ = *src++ ^ state
    f.emit(ir.Load(EAX, ESI, 0))
    f.emit(ir.BinOp("xor", EAX, EBX))
    f.emit(ir.Store(EDI, EAX, 0))
    f.emit(ir.Const(EDX, 4))
    f.emit(ir.BinOp("add", ESI, EDX))
    f.emit(ir.BinOp("add", EDI, EDX))
    f.emit(ir.Const(EDX, 1))
    f.emit(ir.BinOp("sub", ECX, EDX))
    f.emit(ir.Jump("loop"))
    f.emit(ir.Label("done"))
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Ret())
    return f


def rt_rc4_decrypt() -> ir.IRFunction:
    """rt_rc4_decrypt(dst, src, nbytes, workspace).

    ``workspace``: 16-byte key at offset 0, 256-byte S-box scratch at
    offset 16, cursor spill slot at offset 272.  Matches
    :mod:`repro.crypto.rc4` with a 16-byte key.

    This routine is why RC4-protected chains are the slowest strategy
    in Fig. 5a: the 256-iteration KSA runs on *every* chain call, which
    dwarfs short chains (the paper calls this out for lame).
    """
    f = ir.IRFunction("rt_rc4_decrypt", params=4)
    f.emit(ir.Param(ESI, 3))            # workspace base (persistent)

    # --- KSA part 1: S[i] = i ---------------------------------------------
    f.emit(ir.Const(ECX, 0))
    f.emit(ir.Label("init"))
    f.emit(ir.Mov(EDX, ESI))
    f.emit(ir.BinOp("add", EDX, ECX))
    f.emit(ir.Store8(EDX, ECX, RC4_SBOX_OFFSET))
    f.emit(ir.Const(EAX, 1))
    f.emit(ir.BinOp("add", ECX, EAX))
    f.emit(ir.Branch("ult", ECX, 256, "init"))

    # --- KSA part 2: scramble ------------------------------------------------
    f.emit(ir.Const(ECX, 0))            # i
    f.emit(ir.Const(EBX, 0))            # j
    f.emit(ir.Label("ksa"))
    f.emit(ir.Mov(EDX, ESI))
    f.emit(ir.BinOp("add", EDX, ECX))
    f.emit(ir.Load8(EAX, EDX, RC4_SBOX_OFFSET))   # S[i]
    f.emit(ir.BinOp("add", EBX, EAX))
    f.emit(ir.Mov(EDI, ECX))
    f.emit(ir.Const(EDX, 15))
    f.emit(ir.BinOp("and", EDI, EDX))
    f.emit(ir.BinOp("add", EDI, ESI))
    f.emit(ir.Load8(EDX, EDI, RC4_KEY_OFFSET))    # key[i & 15]
    f.emit(ir.BinOp("add", EBX, EDX))
    f.emit(ir.Const(EDX, 255))
    f.emit(ir.BinOp("and", EBX, EDX))
    # swap S[i] (in eax), S[j]
    f.emit(ir.Mov(EDI, ESI))
    f.emit(ir.BinOp("add", EDI, EBX))
    f.emit(ir.Load8(EDX, EDI, RC4_SBOX_OFFSET))   # old S[j]
    f.emit(ir.Store8(EDI, EAX, RC4_SBOX_OFFSET))  # S[j] = old S[i]
    f.emit(ir.Mov(EDI, ESI))
    f.emit(ir.BinOp("add", EDI, ECX))
    f.emit(ir.Store8(EDI, EDX, RC4_SBOX_OFFSET))  # S[i] = old S[j]
    f.emit(ir.Const(EAX, 1))
    f.emit(ir.BinOp("add", ECX, EAX))
    f.emit(ir.Branch("ult", ECX, 256, "ksa"))

    # --- PRGA ----------------------------------------------------------------
    f.emit(ir.Const(ECX, 0))            # i
    f.emit(ir.Const(EBX, 0))            # j
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Store(ESI, EAX, RC4_K_SLOT))        # k = 0
    f.emit(ir.Label("prga"))
    f.emit(ir.Load(EDI, ESI, RC4_K_SLOT))         # k
    f.emit(ir.Param(EDX, 2))                      # nbytes
    f.emit(ir.Branch("uge", EDI, EDX, "done"))
    # i = (i + 1) & 0xff
    f.emit(ir.Const(EAX, 1))
    f.emit(ir.BinOp("add", ECX, EAX))
    f.emit(ir.Const(EAX, 255))
    f.emit(ir.BinOp("and", ECX, EAX))
    # j = (j + S[i]) & 0xff
    f.emit(ir.Mov(EDX, ESI))
    f.emit(ir.BinOp("add", EDX, ECX))
    f.emit(ir.Load8(EAX, EDX, RC4_SBOX_OFFSET))   # S[i]
    f.emit(ir.BinOp("add", EBX, EAX))
    f.emit(ir.Const(EDX, 255))
    f.emit(ir.BinOp("and", EBX, EDX))
    # swap S[i] (eax), S[j]
    f.emit(ir.Mov(EDI, ESI))
    f.emit(ir.BinOp("add", EDI, EBX))
    f.emit(ir.Load8(EDX, EDI, RC4_SBOX_OFFSET))   # old S[j]
    f.emit(ir.Store8(EDI, EAX, RC4_SBOX_OFFSET))  # S[j] = old S[i]
    f.emit(ir.Mov(EDI, ESI))
    f.emit(ir.BinOp("add", EDI, ECX))
    f.emit(ir.Store8(EDI, EDX, RC4_SBOX_OFFSET))  # S[i] = old S[j]
    # keystream byte: S[(S[i]+S[j]) & 0xff]  (eax = old S[i], edx = old S[j])
    f.emit(ir.BinOp("add", EAX, EDX))
    f.emit(ir.Const(EDI, 255))
    f.emit(ir.BinOp("and", EAX, EDI))
    f.emit(ir.BinOp("add", EAX, ESI))
    f.emit(ir.Load8(EDX, EAX, RC4_SBOX_OFFSET))   # ks byte
    # dst[k] = src[k] ^ ks
    f.emit(ir.Load(EDI, ESI, RC4_K_SLOT))         # k
    f.emit(ir.Param(EAX, 1))                      # src
    f.emit(ir.BinOp("add", EAX, EDI))
    f.emit(ir.Load8(EAX, EAX, 0))
    f.emit(ir.BinOp("xor", EAX, EDX))
    f.emit(ir.Param(EDX, 0))                      # dst
    f.emit(ir.BinOp("add", EDX, EDI))
    f.emit(ir.Store8(EDX, EAX, 0))
    # k += 1
    f.emit(ir.Const(EAX, 1))
    f.emit(ir.BinOp("add", EDI, EAX))
    f.emit(ir.Store(ESI, EDI, RC4_K_SLOT))
    f.emit(ir.Jump("prga"))
    f.emit(ir.Label("done"))
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Ret())
    return f


def rt_lincomb() -> ir.IRFunction:
    """rt_lincomb(dst, table, nwords, ctrl).

    Regenerates a chain variant: for each of the ``nwords`` positions,
    draw a variant index from the LCG in ``ctrl``, fetch that variant's
    index-array entry (a 32-bit mask of basis indices), and xor
    together the selected basis vectors from the ctrl block's basis
    table.  The LCG state persists across calls, so every chain call
    may check a different gadget subset — the probabilistic protection
    of §V-B.
    """
    f = ir.IRFunction("rt_lincomb", params=4)
    f.emit(ir.Const(ECX, 0))            # word index
    f.emit(ir.Label("outer"))
    f.emit(ir.Param(EDX, 2))            # nwords
    f.emit(ir.Branch("uge", ECX, EDX, "done"))
    # state = state * LCG_MUL + LCG_ADD
    f.emit(ir.Param(EDX, 3))            # ctrl
    f.emit(ir.Load(EBX, EDX, LC_STATE_OFFSET))
    f.emit(ir.Const(EAX, LCG_MUL))
    f.emit(ir.BinOp("mul", EBX, EAX))
    f.emit(ir.Const(EAX, LCG_ADD))
    f.emit(ir.BinOp("add", EBX, EAX))
    f.emit(ir.Store(EDX, EBX, LC_STATE_OFFSET))
    # variant = (state >> 16) & mask
    f.emit(ir.Shift("shr", EBX, 16))
    f.emit(ir.Load(EAX, EDX, LC_MASK_OFFSET))
    f.emit(ir.BinOp("and", EBX, EAX))
    # entry = table[variant * nwords + word]
    f.emit(ir.Param(EAX, 2))
    f.emit(ir.BinOp("mul", EBX, EAX))
    f.emit(ir.BinOp("add", EBX, ECX))
    f.emit(ir.Shift("shl", EBX, 2))
    f.emit(ir.Param(EAX, 1))            # table
    f.emit(ir.BinOp("add", EBX, EAX))
    f.emit(ir.Load(EBX, EBX, 0))        # entry mask
    # acc = xor of selected basis vectors
    f.emit(ir.Const(EAX, 0))            # acc
    f.emit(ir.Param(EDX, 3))
    f.emit(ir.Const(EDI, LC_BASIS_OFFSET))
    f.emit(ir.BinOp("add", EDX, EDI))   # basis cursor
    f.emit(ir.Label("bits"))
    f.emit(ir.Branch("eq", EBX, 0, "emit"))
    f.emit(ir.Mov(EDI, EBX))
    f.emit(ir.Const(ESI, 1))
    f.emit(ir.BinOp("and", EDI, ESI))
    f.emit(ir.Branch("eq", EDI, 0, "skip"))
    f.emit(ir.Load(EDI, EDX, 0))
    f.emit(ir.BinOp("xor", EAX, EDI))
    f.emit(ir.Label("skip"))
    f.emit(ir.Shift("shr", EBX, 1))
    f.emit(ir.Const(EDI, 4))
    f.emit(ir.BinOp("add", EDX, EDI))
    f.emit(ir.Jump("bits"))
    f.emit(ir.Label("emit"))
    # dst[word] = acc
    f.emit(ir.Mov(EDX, ECX))
    f.emit(ir.Shift("shl", EDX, 2))
    f.emit(ir.Param(EDI, 0))            # dst
    f.emit(ir.BinOp("add", EDI, EDX))
    f.emit(ir.Store(EDI, EAX, 0))
    f.emit(ir.Const(EAX, 1))
    f.emit(ir.BinOp("add", ECX, EAX))
    f.emit(ir.Jump("outer"))
    f.emit(ir.Label("done"))
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Ret())
    return f


def rt_guard() -> ir.IRFunction:
    """rt_guard(start, nwords, expected): §VI-C chain checksumming.

    The chains (and their encrypted blobs, tables, and decryptors) live
    in *data* memory, so — unlike code checksumming — guarding them is
    immune to the Wurster instruction-view attack.  On mismatch the
    process exits with status 66 (the tamper response).
    """
    f = ir.IRFunction("rt_guard", params=3)
    f.emit(ir.Param(ESI, 0))            # region start
    f.emit(ir.Param(ECX, 1))            # nwords
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Label("sum"))
    f.emit(ir.Branch("eq", ECX, 0, "check"))
    f.emit(ir.Load(EDX, ESI, 0))
    f.emit(ir.BinOp("add", EAX, EDX))
    f.emit(ir.Const(EDX, 4))
    f.emit(ir.BinOp("add", ESI, EDX))
    f.emit(ir.Const(EDX, 1))
    f.emit(ir.BinOp("sub", ECX, EDX))
    f.emit(ir.Jump("sum"))
    f.emit(ir.Label("check"))
    f.emit(ir.Param(EBX, 2))            # expected
    f.emit(ir.Branch("eq", EAX, EBX, "ok"))
    f.emit(ir.Const(EAX, 1))
    f.emit(ir.Const(EBX, 66))
    f.emit(ir.Syscall())
    f.emit(ir.Label("ok"))
    f.emit(ir.Const(EAX, 0))
    f.emit(ir.Ret())
    return f


def checksum_words_reference(data: bytes) -> int:
    """Word-sum matching rt_guard (for computing expected values)."""
    total = 0
    for offset in range(0, len(data) - len(data) % 4, 4):
        total = (total + int.from_bytes(data[offset : offset + 4], "little")) & 0xFFFFFFFF
    return total
