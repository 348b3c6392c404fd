"""Structural and type verification for IR modules.

The offload compiler runs the verifier after every transformation pass, so a
pass that produces malformed IR fails loudly instead of miscomputing in the
simulated machines.
"""

from __future__ import annotations

from typing import List

from . import instructions as inst
from .module import Module
from .values import (Argument, BasicBlock, Constant, Function, GlobalVariable,
                     UndefValue)


class VerificationError(Exception):
    """Raised when a module fails verification."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def verify_module(module: Module) -> None:
    """Raise :class:`VerificationError` if the module is malformed."""
    errors: List[str] = []
    for fn in module.functions.values():
        if fn.is_definition:
            _verify_function(module, fn, errors)
    if errors:
        raise VerificationError(errors)


def _verify_function(module: Module, fn: Function, errors: List[str]) -> None:
    where = f"function {fn.name}"
    if not fn.blocks:
        errors.append(f"{where}: definition with no blocks")
        return

    block_set = set(id(b) for b in fn.blocks)
    defined: set = set(id(a) for a in fn.args)

    # First pass: collect every instruction result so forward references in
    # straight-line order are flagged, but cross-block use is allowed (the
    # interpreter evaluates in execution order; clang -O0 style IR only
    # reads temporaries after definition on every path).
    for block in fn.blocks:
        for instruction in block.instructions:
            defined.add(id(instruction))

    seen_names = set()
    for block in fn.blocks:
        if block.name in seen_names:
            errors.append(f"{where}: duplicate block name {block.name}")
        seen_names.add(block.name)
        if block.terminator is None:
            errors.append(f"{where}: block {block.name} has no terminator")
        for i, instruction in enumerate(block.instructions):
            if instruction.is_terminator and i != len(block.instructions) - 1:
                errors.append(
                    f"{where}: terminator mid-block in {block.name}")
            _verify_operands(module, fn, instruction, defined, errors)
            for target in instruction.targets():
                if id(target) not in block_set:
                    errors.append(
                        f"{where}: branch to foreign block {target.name}")
            if isinstance(instruction, inst.Ret):
                _verify_ret(fn, instruction, errors)


def _verify_ret(fn: Function, ret: inst.Ret, errors: List[str]) -> None:
    expected = fn.ftype.ret
    if expected.is_void:
        if ret.value is not None:
            errors.append(f"{fn.name}: ret with value in void function")
    elif ret.value is None:
        errors.append(f"{fn.name}: bare ret in non-void function")
    elif ret.value.type != expected:
        errors.append(
            f"{fn.name}: ret type {ret.value.type}, expected {expected}")


def _verify_operands(module: Module, fn: Function,
                     instruction: inst.Instruction, defined: set,
                     errors: List[str]) -> None:
    for op in instruction.operands:
        if op is None:
            errors.append(f"{fn.name}: None operand in {instruction.opcode}")
            continue
        if isinstance(op, (Constant, UndefValue)):
            continue
        if isinstance(op, GlobalVariable):
            if module.globals.get(op.name) is not op:
                errors.append(
                    f"{fn.name}: global {op.name} not owned by module")
            continue
        if isinstance(op, Function):
            if module.functions.get(op.name) is not op:
                errors.append(
                    f"{fn.name}: callee {op.name} not owned by module")
            continue
        if isinstance(op, (Argument, inst.Instruction)):
            if id(op) not in defined:
                errors.append(
                    f"{fn.name}: operand {op.short()} defined elsewhere")
            continue
        if isinstance(op, BasicBlock):
            continue
        errors.append(
            f"{fn.name}: unexpected operand kind {type(op).__name__}")
