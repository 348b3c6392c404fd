"""The simulated machine: one architecture + one address space + one loaded
program image.

Two of these — a mobile device and a server — are what the Native Offloader
runtime coordinates.  Each machine loads the (partitioned) module with its
own back end conventions: its own function addresses, its own native global
addresses, its own data layout.  Those per-machine differences are precisely
what the memory-unification passes must neutralize for shared data.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..ir.module import Module
from ..ir.values import (AggregateInit, BytesInit, Function, FunctionRefInit,
                         GlobalRefInit, Initializer, ScalarInit, ZeroInit)
from ..ir.types import I8, ArrayType, IRType, StructType, ptr
from ..targets.abi import DataLayout, unified_data_layout
from ..targets.arch import TargetArch
from .allocator import Allocator, OutOfMemoryError
from .fs import IOEnvironment
from .memory import DEFAULT_PAGE_SIZE, AddressSpace
from .values import encode_scalar

# Address-space map.  Everything below 4 GiB so every address fits a 32-bit
# mobile pointer — the precondition for unified 32/64-bit pointer storage.
CODE_BASES = {"mobile": 0x0001_0000, "server": 0x0002_0000}
GLOBAL_BASES = {"mobile": 0x0010_0000, "server": 0x0018_0000}
# Both libc heaps occupy the same virtual range, as two native processes'
# heaps would: without UVA heap replacement, server-side allocations
# collide with mobile-allocated objects.
NATIVE_HEAP_BASES = {"mobile": 0x0100_0000, "server": 0x0100_0000}
NATIVE_HEAP_SIZE = 0x0100_0000
UVA_HEAP_BASE = 0x4000_0000
UVA_HEAP_SIZE = 0x1000_0000
MOBILE_STACK_TOP = 0x7FF0_0000
SERVER_STACK_TOP = 0xBFF0_0000  # "stack reallocation": far from the mobile stack
STACK_SIZE = 0x0080_0000
FUNCTION_STRIDE = 64  # spacing between synthetic function addresses
# What a function or global reference is stored as: a pointer of the
# layout's width.
_POINTER = ptr(I8)


class Machine:
    """One simulated device (role: "mobile" or "server")."""

    def __init__(self, arch: TargetArch, role: str = "mobile",
                 io: Optional[IOEnvironment] = None,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if role not in ("mobile", "server"):
            raise ValueError("role must be 'mobile' or 'server'")
        self.arch = arch
        self.role = role
        self.layout = DataLayout(arch)
        self.memory = AddressSpace(page_size=page_size)
        self.io = io if io is not None else IOEnvironment()
        self.native_heap = Allocator(NATIVE_HEAP_BASES[role],
                                     NATIVE_HEAP_SIZE)
        # The UVA allocator is installed by the offload runtime; programs
        # that never offload still get one so u_malloc works stand-alone.
        self.uva_heap = Allocator(UVA_HEAP_BASE, UVA_HEAP_SIZE)
        self.stack_top = (MOBILE_STACK_TOP if role == "mobile"
                          else SERVER_STACK_TOP)
        self.module: Optional[Module] = None
        self.function_addresses: Dict[str, int] = {}
        self.address_to_function: Dict[int, Function] = {}
        self.global_addresses: Dict[str, int] = {}
        self.builtins: Dict[str, Callable] = {}
        # Translation-overhead counters (address-size conversion and
        # endianness translation), charged by the interpreter.
        self.pointer_conversions = 0
        self.endian_swaps = 0

    # -- configuration ------------------------------------------------------
    def register_builtin(self, name: str, fn: Callable) -> None:
        self.builtins[name] = fn

    @property
    def heap_for_malloc(self) -> Allocator:
        return self.native_heap

    # -- program loading --------------------------------------------------
    def load(self, module: Module) -> None:
        """Back-end + loader: adopt the data layout the module asks for
        (the unified one if memory unification ran, else this machine's
        native one), assign code/data addresses and initialize global
        memory."""
        self.module = module
        self.layout = unified_data_layout(module, self.arch)
        self._assign_function_addresses(module)
        self._assign_global_addresses(module)
        self._initialize_globals(module)

    def _assign_function_addresses(self, module: Module) -> None:
        addr = CODE_BASES[self.role]
        for name in module.functions:
            fn = module.functions[name]
            self.function_addresses[name] = addr
            self.address_to_function[addr] = fn
            addr += FUNCTION_STRIDE

    def _assign_global_addresses(self, module: Module) -> None:
        addr = GLOBAL_BASES[self.role]
        heap = NATIVE_HEAP_BASES[self.role]
        for name, gv in module.globals.items():
            size = max(1, self.layout.size_of(gv.value_type))
            align = max(self.layout.align_of(gv.value_type), 1)
            if gv.uva_allocated:
                # Referenced-global reallocation (Section 3.2): place the
                # variable on the UVA heap.  Allocation order is the module
                # order, so mobile and server compute identical addresses.
                self.global_addresses[name] = self.uva_heap.alloc(size)
            else:
                addr = _round_up(addr, align)
                if addr + size > heap:
                    # The segment would run into the native heap, and a
                    # malloc'd object would alias the global's bytes.
                    raise OutOfMemoryError(
                        f"native global {name!r} ({size} bytes at "
                        f"{addr:#x}) overlaps the {self.role} native heap "
                        f"at {heap:#x}")
                self.global_addresses[name] = addr
                addr += size

    def _initialize_globals(self, module: Module) -> None:
        for name, gv in module.globals.items():
            base = self.global_addresses[name]
            data = self.encode_initializer(gv.initializer, gv.value_type)
            self.map_range(base, len(data))
            self.memory.write(base, data)
        self.memory.clear_dirty()

    def map_range(self, address: int, size: int) -> None:
        """Ensure pages backing [address, address+size) exist.

        If a fault handler is installed (the UVA manager's copy-on-demand
        hook), an unmapped page is first offered to it: an allocation that
        lands on a partially-shared page must *fetch* that page, not
        shadow it with zeroes."""
        first = self.memory.page_index(address)
        last = self.memory.page_index(address + max(size, 1) - 1)
        handler = self.memory.fault_handler
        for pidx in range(first, last + 1):
            if pidx in self.memory.pages:
                continue
            if handler is not None and handler(pidx):
                continue
            self.memory.map_page(pidx)

    # -- initializer encoding ----------------------------------------------
    def encode_initializer(self, init: Initializer, type: IRType) -> bytes:
        size = max(1, self.layout.size_of(type))
        if isinstance(init, ZeroInit):
            return b"\x00" * size
        if isinstance(init, ScalarInit):
            return encode_scalar(init.value, type, self.layout).ljust(
                size, b"\x00")
        if isinstance(init, BytesInit):
            if len(init.data) > size:
                raise ValueError(
                    f"initializer too large for {type} ({len(init.data)} "
                    f"> {size})")
            return init.data.ljust(size, b"\x00")
        if isinstance(init, FunctionRefInit):
            return encode_scalar(self.function_addresses[init.function_name],
                                 _POINTER, self.layout)
        if isinstance(init, GlobalRefInit):
            return encode_scalar(
                self.global_addresses[init.global_name] + init.offset,
                _POINTER, self.layout)
        if isinstance(init, AggregateInit):
            return self._encode_aggregate(init, type, size)
        raise TypeError(f"unknown initializer {init!r}")

    def _encode_aggregate(self, init: AggregateInit, type: IRType,
                          size: int) -> bytes:
        buf = bytearray(size)
        if isinstance(type, ArrayType):
            stride = self.layout.size_of(type.element)
            for i, element in enumerate(init.elements):
                data = self.encode_initializer(element, type.element)
                buf[i * stride:i * stride + len(data)] = data
            return bytes(buf)
        if isinstance(type, StructType):
            layout = self.layout.struct_layout(type)
            for i, element in enumerate(init.elements):
                ftype = type.field_types[i]
                data = self.encode_initializer(element, ftype)
                off = layout.offset_of(i)
                buf[off:off + len(data)] = data
            return bytes(buf)
        raise TypeError(f"aggregate initializer for non-aggregate {type}")

    # -- function address helpers -----------------------------------------
    def address_of_function(self, name: str) -> int:
        return self.function_addresses[name]

    def function_at(self, address: int) -> Optional[Function]:
        return self.address_to_function.get(address)

    def address_of_global(self, name: str) -> int:
        return self.global_addresses[name]

    def __repr__(self) -> str:
        return f"<Machine {self.role}:{self.arch.name}>"


def boot(module: Module, arch: TargetArch, role: str = "mobile",
         io: Optional[IOEnvironment] = None,
         page_size: int = DEFAULT_PAGE_SIZE) -> Machine:
    """The one place a module becomes a machine that can run it: libc
    bound, the module loaded under the data layout its metadata asks for."""
    from .libc import install_libc      # libc sits above this module
    machine = Machine(arch, role, io=io, page_size=page_size)
    install_libc(machine)
    machine.load(module)
    return machine


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align
