"""Scalar encode/decode between Python values and target memory bytes.

All the architecture-awareness of a memory access funnels through here:
byte order, pointer width (with the 32->64 zero extension of the
address-size conversion pass) and IEEE-754 encodings.
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


_SINGLE = struct.Struct("<f")


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
    """Encode one scalar value for storage under ``layout``."""
    order = layout.byte_order
    if isinstance(type, IntType):
        size = max(1, type.bits // 8)
        return int(value).to_bytes(size, order)
    if isinstance(type, FloatType):
        fmt = ("<" if order == "little" else ">") + ("f" if type.bits == 32 else "d")
        value = float(value)
        return struct.pack(
            fmt, round_to_single(value) if type.bits == 32 else value)
    if isinstance(type, PointerType):
        size = layout.pointer_bytes
        addr = int(value)
        if addr >= 1 << (size * 8):
            raise OverflowError(
                f"pointer {addr:#x} does not fit in {size}-byte pointer; "
                "address-size unification requires UVA addresses below "
                f"2^{size * 8}")
        return addr.to_bytes(size, order)
    raise TypeError(f"cannot encode non-scalar type {type}")


def decode_scalar(data: bytes, type: IRType, layout: DataLayout):
    """Decode one scalar value stored under ``layout``."""
    order = layout.byte_order
    if isinstance(type, IntType):
        return int.from_bytes(data, order)
    if isinstance(type, FloatType):
        fmt = ("<" if order == "little" else ">") + ("f" if type.bits == 32 else "d")
        return struct.unpack(fmt, data)[0]
    if isinstance(type, PointerType):
        # Zero-extension of narrow stored pointers happens implicitly:
        # the decoded Python int is the full address.
        return int.from_bytes(data, order)
    raise TypeError(f"cannot decode non-scalar type {type}")


def scalar_size(type: IRType, layout: DataLayout) -> int:
    if isinstance(type, IntType):
        return max(1, type.bits // 8)
    if isinstance(type, FloatType):
        return type.bits // 8
    if isinstance(type, PointerType):
        return layout.pointer_bytes
    raise TypeError(f"{type} is not scalar")
