"""ABI layout engine: sizes, alignments and struct field offsets per target.

This is the machinery behind Figure 4 of the paper: the *same* IR struct
type gets different offsets/sizes on different architectures, so a unified
virtual address space alone is not enough — the memory-layout realignment
pass must impose one layout (the mobile one) on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ir.types import (ArrayType, FloatType, IRType, IntType, PointerType,
                        StructType)
from .arch import TargetArch


@dataclass(frozen=True)
class StructLayout:
    """Concrete layout of a struct on some target: per-field byte offsets,
    total size and alignment."""

    struct_name: str
    offsets: Tuple[int, ...]
    size: int
    align: int

    def offset_of(self, field_index: int) -> int:
        return self.offsets[field_index]


class DataLayout:
    """Sizes/alignments/offsets for every IR type on one target.

    ``pointer_bytes`` may be overridden (without changing the compute
    architecture) — that is how memory unification forces the server to use
    the mobile pointer width in memory, paying an address-size conversion on
    every pointer access.  Likewise struct layouts may be overridden with a
    unified layout map.
    """

    def __init__(self, arch: TargetArch,
                 pointer_bytes: int = 0,
                 struct_overrides: Dict[str, StructLayout] = None,
                 byte_order: str = ""):
        self.arch = arch
        self.pointer_bytes = pointer_bytes or arch.pointer_bytes
        self.byte_order = byte_order or arch.endianness
        self._struct_cache: Dict[str, StructLayout] = {}
        self.struct_overrides = dict(struct_overrides or {})

    # -- scalar sizes ---------------------------------------------------
    def size_of(self, type: IRType) -> int:
        if isinstance(type, IntType):
            return max(1, type.bits // 8)
        if isinstance(type, FloatType):
            return type.bits // 8
        if isinstance(type, PointerType):
            return self.pointer_bytes
        if isinstance(type, ArrayType):
            return self.size_of(type.element) * type.count
        if isinstance(type, StructType):
            return self.struct_layout(type).size
        raise TypeError(f"type {type} has no size")

    def align_of(self, type: IRType) -> int:
        if isinstance(type, (IntType, FloatType, PointerType)):
            natural = self.size_of(type)
            return min(natural, self.arch.max_field_align)
        if isinstance(type, ArrayType):
            return self.align_of(type.element)
        if isinstance(type, StructType):
            return self.struct_layout(type).align
        raise TypeError(f"type {type} has no alignment")

    # -- struct layout ----------------------------------------------------
    def struct_layout(self, struct: StructType) -> StructLayout:
        override = self.struct_overrides.get(struct.name)
        if override is not None:
            return override
        cached = self._struct_cache.get(struct.name)
        if cached is not None:
            return cached
        layout = self._compute_layout(struct)
        self._struct_cache[struct.name] = layout
        return layout

    def _compute_layout(self, struct: StructType) -> StructLayout:
        offsets: List[int] = []
        offset = 0
        max_align = 1
        for _, ftype in struct.fields:
            align = self.align_of(ftype)
            max_align = max(max_align, align)
            offset = _round_up(offset, align)
            offsets.append(offset)
            offset += self.size_of(ftype)
        size = _round_up(offset, max_align)
        return StructLayout(struct.name, tuple(offsets), size, max_align)

    # -- GEP offset computation ---------------------------------------
    def element_offset(self, aggregate: IRType, index: int) -> int:
        """Byte offset of element ``index`` within an aggregate."""
        if isinstance(aggregate, StructType):
            return self.struct_layout(aggregate).offset_of(index)
        if isinstance(aggregate, ArrayType):
            return self.size_of(aggregate.element) * index
        raise TypeError(f"cannot index into {aggregate}")

    def clone_with(self, pointer_bytes: int = 0,
                   struct_overrides: Dict[str, StructLayout] = None,
                   byte_order: str = "") -> "DataLayout":
        return DataLayout(
            self.arch,
            pointer_bytes=pointer_bytes or self.pointer_bytes,
            struct_overrides=(struct_overrides
                              if struct_overrides is not None
                              else self.struct_overrides),
            byte_order=byte_order or self.byte_order,
        )


def _round_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align


# Module-metadata keys under which memory unification
# (repro.offload.unify) records the layout both machines must use.
UNIFIED_LAYOUTS_KEY = "unified_layouts"
UNIFIED_POINTER_KEY = "unified_pointer_bytes"
UNIFIED_ORDER_KEY = "unified_byte_order"


def unified_data_layout(module, arch: TargetArch) -> DataLayout:
    """The data layout a machine of ``arch`` must use for this module: the
    unified (mobile) layout if unification ran, else the native one."""
    metadata = module.metadata
    return DataLayout(arch,
                      pointer_bytes=metadata.get(UNIFIED_POINTER_KEY, 0),
                      struct_overrides=metadata.get(UNIFIED_LAYOUTS_KEY),
                      byte_order=metadata.get(UNIFIED_ORDER_KEY, ""))


def layouts_differ(a: DataLayout, b: DataLayout,
                   structs: List[StructType]) -> List[str]:
    """Names of structs whose layouts differ between two data layouts.

    The memory-layout realignment pass uses this to decide which structs
    need a unified layout at all (no-op when mobile and server agree)."""
    differing = []
    for struct in structs:
        if struct.is_opaque:
            continue
        if a.struct_layout(struct) != b.struct_layout(struct):
            differing.append(struct.name)
    return differing
