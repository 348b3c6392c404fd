"""Simulated machines: paged memory, IR interpreter, libc, I/O, energy."""

from .memory import AddressSpace, SegmentationFault, DEFAULT_PAGE_SIZE
from .allocator import Allocator, OutOfMemoryError
from .fs import GuestOutput, IOEnvironment, SimFile
from .machine import (Machine, boot, CODE_BASES, GLOBAL_BASES,
                      MOBILE_STACK_TOP, NATIVE_HEAP_BASES, SERVER_STACK_TOP,
                      UVA_HEAP_BASE, UVA_HEAP_SIZE)
from .interpreter import (BadFunctionPointer, ExecutionLimitExceeded,
                          ExitProgram, Interpreter, InterpreterError,
                          Observer, StackOverflow)
from .libc import install_libc, map_range
from .energy import (EnergyMeter, PowerInterval, PowerTrace,
                     DEFAULT_POWER_MW, TRANSMIT_MAX_MW)
from .values import decode_scalar, encode_scalar, scalar_size, to_signed, to_unsigned

__all__ = [
    "AddressSpace", "SegmentationFault", "DEFAULT_PAGE_SIZE",
    "Allocator", "OutOfMemoryError",
    "GuestOutput", "IOEnvironment", "SimFile",
    "Machine", "boot", "CODE_BASES", "GLOBAL_BASES", "MOBILE_STACK_TOP",
    "NATIVE_HEAP_BASES", "SERVER_STACK_TOP", "UVA_HEAP_BASE", "UVA_HEAP_SIZE",
    "BadFunctionPointer", "ExecutionLimitExceeded", "ExitProgram",
    "Interpreter", "InterpreterError", "Observer", "StackOverflow",
    "install_libc", "map_range",
    "EnergyMeter", "PowerInterval", "PowerTrace", "DEFAULT_POWER_MW",
    "TRANSMIT_MAX_MW",
    "decode_scalar", "encode_scalar", "scalar_size", "to_signed",
    "to_unsigned",
]
