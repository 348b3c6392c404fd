"""C-level type model for the mini-C frontend.

IR types carry no signedness, so the frontend tracks C types separately and
lowers them to IR types plus correctly-signed operations (sdiv vs udiv,
sext vs zext), mirroring how clang lowers C to LLVM IR.
"""

from __future__ import annotations

from typing import List, Tuple

from ..ir import types as irt


class CType:
    """Base class of the C type lattice."""

    ir: irt.IRType

    @property
    def is_integer(self) -> bool:
        return isinstance(self, CInt)

    @property
    def is_float(self) -> bool:
        return isinstance(self, CFloat)

    @property
    def is_arith(self) -> bool:
        return self.is_integer or self.is_float

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, CPointer)

    @property
    def is_array(self) -> bool:
        return isinstance(self, CArray)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, CStruct)

    @property
    def is_void(self) -> bool:
        return isinstance(self, CVoid)

    @property
    def is_function(self) -> bool:
        return isinstance(self, CFunc)

    @property
    def is_scalar(self) -> bool:
        return self.is_arith or self.is_pointer

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    def __repr__(self):
        return str(self)


class CVoid(CType):
    def __init__(self):
        self.ir = irt.VOID

    def __str__(self):
        return "void"


class CInt(CType):
    def __init__(self, bits: int, signed: bool):
        self.bits = bits
        self.signed = signed
        self.ir = irt.IntType(bits)

    def _key(self):
        return (self.bits, self.signed)

    def __str__(self):
        return f"{'' if self.signed else 'u'}int{self.bits}"

    @property
    def rank(self) -> int:
        return self.bits


class CFloat(CType):
    def __init__(self, bits: int):
        self.bits = bits
        self.ir = irt.FloatType(bits)

    def _key(self):
        return (self.bits,)

    def __str__(self):
        return f"float{self.bits}"


class CPointer(CType):
    def __init__(self, pointee: CType):
        self.pointee = pointee
        self.ir = irt.PointerType(pointee.ir)

    def _key(self):
        return (self.pointee,)

    def __str__(self):
        return f"{self.pointee}*"


class CArray(CType):
    def __init__(self, element: CType, count: int):
        self.element = element
        self.count = count
        self.ir = irt.ArrayType(element.ir, count)

    def _key(self):
        return (self.element, self.count)

    def __str__(self):
        return f"{self.element}[{self.count}]"


class CStruct(CType):
    def __init__(self, ir_struct: irt.StructType,
                 field_ctypes: List[Tuple[str, "CType"]]):
        self.ir = ir_struct
        self.fields = field_ctypes

    def field(self, name: str) -> Tuple[int, "CType"]:
        for i, (fname, ftype) in enumerate(self.fields):
            if fname == name:
                return i, ftype
        raise KeyError(f"struct {self.ir.name} has no field {name!r}")

    def _key(self):
        return (self.ir.name,)

    def __str__(self):
        return f"struct {self.ir.name}"


class CFunc(CType):
    def __init__(self, ret: CType, params: List[CType], variadic: bool):
        self.ret = ret
        self.params = params
        self.variadic = variadic
        self.ir = irt.FunctionType(ret.ir, [p.ir for p in params], variadic)

    def _key(self):
        return (self.ret, tuple(self.params), self.variadic)

    def __str__(self):
        return f"{self.ret}(*)({', '.join(map(str, self.params))})"


# Canonical instances.  C 'long' is ILP32-flavoured 64-bit here: the IR is
# compiled once for both targets, so integer widths must be target-neutral.
VOID = CVoid()
BOOL = CInt(1, False)
CHAR = CInt(8, True)
UCHAR = CInt(8, False)
SHORT = CInt(16, True)
USHORT = CInt(16, False)
INT = CInt(32, True)
UINT = CInt(32, False)
LONG = CInt(64, True)
ULONG = CInt(64, False)
FLOAT = CFloat(32)
DOUBLE = CFloat(64)

BASE_TYPES = {
    "void": VOID,
    "char": CHAR, "uchar": UCHAR,
    "short": SHORT, "ushort": USHORT,
    "int": INT, "uint": UINT,
    "long": LONG, "ulong": ULONG,
    "llong": LONG, "ullong": ULONG,
    "float": FLOAT, "double": DOUBLE,
}


def usual_arithmetic_conversion(a: CType, b: CType) -> CType:
    """C's usual arithmetic conversions, simplified to this type set."""
    if not (a.is_arith and b.is_arith):
        raise TypeError(f"arithmetic conversion of {a} and {b}")
    if a.is_float or b.is_float:
        bits = max(a.bits if a.is_float else 0, b.bits if b.is_float else 0)
        return CFloat(max(bits, 32)) if bits < 64 else DOUBLE
    # integer promotion to at least int
    bits = max(32, a.bits, b.bits)
    if a.bits == b.bits == bits:
        signed = a.signed and b.signed
    elif a.bits == bits:
        signed = a.signed
    elif b.bits == bits:
        signed = b.signed
    else:
        signed = True
    return CInt(bits, signed)


def promote(t: CType) -> CType:
    """Integer promotion (and float -> double for varargs)."""
    if t.is_integer and t.bits < 32:
        return CInt(32, True)
    if t.is_float and t.bits < 64:
        return DOUBLE
    return t
