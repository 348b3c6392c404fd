"""Server-specific optimizations (paper, Section 3.4).

* **Remote I/O manager** — output and file-I/O call sites in the server
  partition are rewritten to ``r_*`` runtime calls that forward the request
  to the mobile device (its files, its screen), instead of poisoning the
  whole hot region as machine specific.
* **Function pointer mapping** — back ends place functions at different
  addresses, and shared memory holds *mobile* function addresses.  Every
  indirect call on the server first maps the loaded (mobile) address to the
  server's address (``m2s``); every store of a server function address into
  memory converts it back to the canonical mobile address (``s2m``).
"""

from __future__ import annotations

from ..ir import instructions as inst
from ..ir.module import Module
from ..ir.types import FunctionType, PointerType, I8
from ..ir.values import Function
from .filter import REMOTE_IO_FUNCTIONS

M2S_FCN_MAP = "__no_m2s_fcn_map"
S2M_FCN_MAP = "__no_s2m_fcn_map"
REMOTE_IO_PREFIX = "r_"


def apply_remote_io(server_module: Module) -> int:
    """Rewrite I/O call sites to remote I/O calls; returns sites rewritten."""
    rewritten = 0
    for fn in list(server_module.defined_functions()):
        for instruction in fn.instructions():
            if not isinstance(instruction, inst.Call):
                continue
            callee = instruction.called_function
            if callee is None or callee.is_definition:
                continue
            if callee.name not in REMOTE_IO_FUNCTIONS:
                continue
            remote = server_module.declare_function(
                REMOTE_IO_PREFIX + callee.name, callee.ftype)
            instruction.replace_operand(callee, remote)
            rewritten += 1
    return rewritten


def apply_function_pointer_mapping(server_module: Module) -> int:
    """Insert m2s translation before indirect calls and s2m translation on
    stores of function addresses; returns conversion sites inserted."""
    i8p = PointerType(I8)
    m2s = server_module.declare_function(
        M2S_FCN_MAP, FunctionType(i8p, [i8p]))
    s2m = server_module.declare_function(
        S2M_FCN_MAP, FunctionType(i8p, [i8p]))
    inserted = 0
    for fn in list(server_module.defined_functions()):
        for block in fn.blocks:
            index = 0
            while index < len(block.instructions):
                instruction = block.instructions[index]
                if (isinstance(instruction, inst.Call)
                        and instruction.is_indirect):
                    callee = instruction.callee
                    raw = inst.Cast("bitcast", callee, i8p, "fp.raw")
                    mapped = inst.Call(m2s, [raw], "fp.m2s")
                    typed = inst.Cast("bitcast", mapped, callee.type,
                                      "fp.typed")
                    block.insert(index, raw)
                    block.insert(index + 1, mapped)
                    block.insert(index + 2, typed)
                    instruction.replace_operand(callee, typed)
                    index += 4
                    inserted += 1
                    continue
                if (isinstance(instruction, inst.Store)
                        and isinstance(instruction.value, Function)):
                    value = instruction.value
                    raw = inst.Cast("bitcast", value, i8p, "fp.raw")
                    mapped = inst.Call(s2m, [raw], "fp.s2m")
                    typed = inst.Cast("bitcast", mapped, value.type,
                                      "fp.typed")
                    block.insert(index, raw)
                    block.insert(index + 1, mapped)
                    block.insert(index + 2, typed)
                    instruction.replace_operand(value, typed)
                    index += 4
                    inserted += 1
                    continue
                index += 1
    return inserted
