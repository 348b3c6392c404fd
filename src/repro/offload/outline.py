"""Loop outlining: extract a natural loop into its own function.

The paper offloads loops as well as functions (targets like
``main_for.cond`` in Table 4).  Offloading machinery operates on callable
units, so a selected loop is first outlined into a function whose arguments
are the values defined outside the loop that its body uses — in clang -O0
style IR these are the entry-block allocas of the enclosing function.

Loops with multiple exits (``break`` out of a guarded read, for instance)
are supported: the outlined function returns the index of the exit edge it
left through, and the call site dispatches on that index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.loops import Loop
from ..ir import instructions as inst
from ..ir.types import FunctionType, I32
from ..ir.values import (Argument, BasicBlock, Constant, Function,
                         GlobalVariable, UndefValue, Value)
from ..ir.module import Module


class OutliningError(Exception):
    pass


def can_outline(loop: Loop) -> Optional[str]:
    """Returns None if the loop is outlineable, else the reason it isn't."""
    if not loop.exit_blocks():
        return "loop has no exit blocks"
    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, inst.Ret):
                return "loop contains a return"
    # Values defined inside the loop must not be used outside it.
    inside = set()
    for block in loop.blocks:
        for instruction in block.instructions:
            inside.add(id(instruction))
    for block in loop.function.blocks:
        if block in loop.blocks:
            continue
        for instruction in block.instructions:
            for op in instruction.operands:
                if id(op) in inside:
                    return "loop defines values used outside"
    return None


def outline_loop(module: Module, loop: Loop, name: str) -> Function:
    """Extract ``loop`` from its function into a new function named
    ``name`` returning the exit-edge index; the original site becomes a
    call plus a dispatch to the original exit blocks."""
    reason = can_outline(loop)
    if reason is not None:
        raise OutliningError(f"cannot outline {loop.name}: {reason}")
    parent = loop.function
    exit_blocks = loop.exit_blocks()

    inputs = _live_in_values(loop)
    ftype = FunctionType(I32, [v.type for v in inputs])
    arg_names = [_input_name(v, i) for i, v in enumerate(inputs)]
    outlined = Function(name, ftype, arg_names)
    module.add_function(outlined)
    outlined.source_lines = max(
        1, sum(len(b.instructions) for b in loop.blocks) // 4)

    entry = outlined.add_block("outline.entry")
    value_map: Dict[int, Value] = {
        id(v): arg for v, arg in zip(inputs, outlined.args)}

    # Move loop blocks, preserving original order.
    moved = [b for b in parent.blocks if b in loop.blocks]
    for block in moved:
        parent.blocks.remove(block)
        block.parent = outlined
        outlined.blocks.append(block)

    # One return block per exit edge, returning the exit index.
    ret_blocks: List[BasicBlock] = []
    for i, exit_block in enumerate(exit_blocks):
        ret_block = outlined.add_block(f"outline.ret{i}")
        ret_block.append(inst.Ret(Constant(I32, i)))
        ret_blocks.append(ret_block)

    entry.append(inst.Br(loop.header))

    for block in outlined.blocks:
        for instruction in block.instructions:
            for op in list(instruction.operands):
                mapped = value_map.get(id(op))
                if mapped is not None:
                    instruction.replace_operand(op, mapped)
            for i, exit_block in enumerate(exit_blocks):
                _retarget(instruction, exit_block, ret_blocks[i])

    # Replace the loop in the parent: call, then dispatch on exit index.
    call_block = parent.add_block(f"call.{name}", before=exit_blocks[0])
    call = inst.Call(outlined, list(inputs), "exitidx")
    call_block.append(call)
    if len(exit_blocks) == 1:
        call_block.append(inst.Br(exit_blocks[0]))
    else:
        switch = inst.Switch(call, exit_blocks[-1])
        for i, exit_block in enumerate(exit_blocks[:-1]):
            switch.add_case(i, exit_block)
        call_block.append(switch)
    for block in parent.blocks:
        if block is call_block:
            continue
        term = block.terminator
        if term is not None:
            _retarget(term, loop.header, call_block)
    return outlined


def _retarget(instruction: inst.Instruction, old: BasicBlock,
              new: BasicBlock) -> None:
    if isinstance(instruction, inst.Br):
        if instruction.target is old:
            instruction.target = new
    elif isinstance(instruction, inst.CondBr):
        if instruction.if_true is old:
            instruction.if_true = new
        if instruction.if_false is old:
            instruction.if_false = new
    elif isinstance(instruction, inst.Switch):
        if instruction.default is old:
            instruction.default = new
        instruction.cases = [(c, new if b is old else b)
                             for c, b in instruction.cases]


def _live_in_values(loop: Loop) -> List[Value]:
    """Values (arguments / instructions) defined outside the loop but used
    inside, in deterministic first-use order."""
    inside_defs: Set[int] = set()
    for block in loop.blocks:
        for instruction in block.instructions:
            inside_defs.add(id(instruction))
    seen: Set[int] = set()
    inputs: List[Value] = []
    ordered_blocks = [b for b in loop.function.blocks if b in loop.blocks]
    for block in ordered_blocks:
        for instruction in block.instructions:
            for op in instruction.operands:
                if isinstance(op, (Constant, GlobalVariable, Function,
                                   UndefValue, BasicBlock)):
                    continue
                if isinstance(op, (Argument, inst.Instruction)):
                    if id(op) in inside_defs or id(op) in seen:
                        continue
                    seen.add(id(op))
                    inputs.append(op)
    return inputs


def _input_name(value: Value, index: int) -> str:
    base = value.name or f"in{index}"
    return f"{base}.in"
