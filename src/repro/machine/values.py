"""Scalar encode/decode between Python values and target memory bytes.

All the architecture-awareness of a memory access funnels through here:
byte order, pointer width (with the 32->64 zero extension of the
address-size conversion pass) and IEEE-754 encodings.  ``SCALARS`` is the
one table of ``struct`` codecs: the loader, the reference codec below and
the interpreter's generated loads and stores all take theirs from it.
"""

from __future__ import annotations

import math
import struct

from ..ir.types import FloatType, IRType, IntType, PointerType
from ..targets.abi import DataLayout


def to_signed(value: int, bits: int) -> int:
    """Reinterpret an unsigned ``bits``-wide value as signed."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int) -> int:
    """Canonicalize a Python int to the unsigned ``bits``-wide form."""
    return value & ((1 << bits) - 1)


# (kind, size in bytes, byte order) -> the Struct that stores one scalar;
# an "int" is unsigned, and a pointer is an "int" of the layout's width.
SCALARS = {
    (kind, size, order): struct.Struct(prefix + code)
    for kind, codes in (("int", {1: "B", 2: "H", 4: "I", 8: "Q"}),
                        ("float", {4: "f", 8: "d"}))
    for size, code in codes.items()
    for order, prefix in (("little", "<"), ("big", ">"))}
_SINGLE = SCALARS["float", 4, "little"]


def scalar_struct(type: IRType, layout: DataLayout) -> struct.Struct:
    """How ``layout`` stores one ``type``."""
    order = layout.byte_order
    if isinstance(type, IntType):
        return SCALARS["int", max(1, type.bits // 8), order]
    if isinstance(type, FloatType):
        return SCALARS["float", type.bits // 8, order]
    if isinstance(type, PointerType):
        return SCALARS["int", layout.pointer_bytes, order]
    raise TypeError(f"{type} is not scalar")


def scalar_size(type: IRType, layout: DataLayout) -> int:
    return scalar_struct(type, layout).size


def too_wide(value: int, size: int) -> OverflowError:
    """What storing ``value`` into a ``size``-byte slot raises: the
    precondition of address-size unification (Section 3.2)."""
    return OverflowError(
        f"pointer {value:#x} does not fit in {size} bytes; UVA addresses "
        "must stay below the unified pointer range")


def round_to_single(value: float) -> float:
    """``value`` as IEEE 754 single precision holds it — what a C
    ``(float)`` cast or a store to a ``float`` does.  A magnitude single
    precision cannot hold rounds to an infinity; ``struct`` raises
    instead."""
    try:
        return _SINGLE.unpack(_SINGLE.pack(value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def encode_scalar(value, type: IRType, layout: DataLayout) -> bytes:
    """Encode one scalar value for storage under ``layout``; a negative
    integer or pointer is stored as two's complement at the slot's width."""
    codec = scalar_struct(type, layout)
    if isinstance(type, FloatType):
        value = float(value)
        return codec.pack(round_to_single(value) if codec.size == 4 else value)
    value, limit = int(value), 1 << codec.size * 8
    if value >= limit:
        raise too_wide(value, codec.size)
    return codec.pack(value % limit)


def decode_scalar(data: bytes, type: IRType, layout: DataLayout):
    """Decode one scalar value stored under ``layout``.  A narrow stored
    pointer zero-extends: the decoded Python int is the full address."""
    return scalar_struct(type, layout).unpack(data)[0]
