"""IA-32 register definitions.

Registers are interned: ``Register.by_name("eax")`` and the module-level
constant ``EAX`` are the same object, so identity comparison is safe.
"""

from __future__ import annotations


class Register:
    """A named x86 register with its hardware encoding number and width.

    Attributes:
        name: canonical lower-case name, e.g. ``"eax"``.
        code: the 3-bit encoding used in modrm/reg fields.
        width: operand width in bits (8, 16 or 32).
    """

    __slots__ = ("name", "code", "width")

    _BY_NAME: dict = {}

    def __init__(self, name: str, code: int, width: int):
        self.name = name
        self.code = code
        self.width = width
        Register._BY_NAME[name] = self

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        # Preserve interning across pickling (multiprocessing results,
        # the on-disk gadget cache): unpickling resolves back to the
        # module-level singleton, keeping identity comparison safe.
        return (Register.by_name, (self.name,))

    def full(self) -> "Register":
        """Return the 32-bit register this register aliases.

        ``AL.full()`` and ``AH.full()`` are both ``EAX``; a 32-bit register
        returns itself.
        """
        if self.width == 32:
            return self
        return GP32[self.code & 0x3] if self.width == 8 and self.code >= 4 else GP32[self.code]

    @classmethod
    def by_name(cls, name: str) -> "Register":
        return cls._BY_NAME[name.lower()]

    @classmethod
    def gp32(cls, code: int) -> "Register":
        return GP32[code]

    @classmethod
    def gp16(cls, code: int) -> "Register":
        return GP16[code]

    @classmethod
    def gp8(cls, code: int) -> "Register":
        return GP8[code]


EAX = Register("eax", 0, 32)
ECX = Register("ecx", 1, 32)
EDX = Register("edx", 2, 32)
EBX = Register("ebx", 3, 32)
ESP = Register("esp", 4, 32)
EBP = Register("ebp", 5, 32)
ESI = Register("esi", 6, 32)
EDI = Register("edi", 7, 32)

AX = Register("ax", 0, 16)
CX = Register("cx", 1, 16)
DX = Register("dx", 2, 16)
BX = Register("bx", 3, 16)
SP = Register("sp", 4, 16)
BP = Register("bp", 5, 16)
SI = Register("si", 6, 16)
DI = Register("di", 7, 16)

AL = Register("al", 0, 8)
CL = Register("cl", 1, 8)
DL = Register("dl", 2, 8)
BL = Register("bl", 3, 8)
AH = Register("ah", 4, 8)
CH = Register("ch", 5, 8)
DH = Register("dh", 6, 8)
BH = Register("bh", 7, 8)

GP32 = (EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI)
GP16 = (AX, CX, DX, BX, SP, BP, SI, DI)
GP8 = (AL, CL, DL, BL, AH, CH, DH, BH)

#: Registers the ROP compiler may freely clobber inside chains (caller-saved
#: by our toy ABI; everything except esp).
SCRATCH32 = (EAX, ECX, EDX, EBX, EBP, ESI, EDI)
