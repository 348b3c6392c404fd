"""IR interpreter with per-architecture cycle accounting.

This is the "CPU" of a simulated machine.  Execution is functionally exact
(byte-accurate memory, real control flow) while *time* is modelled: every
executed instruction charges cycles from the target's timing model, so the
same program takes ~5-6x longer on the ARM mobile profile than on the x86
server profile — the gap the paper's Table 1 measures.

The interpreter also charges and counts the two memory-unification
overheads the paper discusses: address-size conversion (negligible) and
endianness translation (zero on the default little/little pair).

A function is *decoded* the first time an interpreter calls it: every
instruction becomes one closure with everything that is constant for the
(function, machine) pair already bound, and a call runs those closures
over a list-shaped frame (docs/architecture.md, "Interpreter: decode once,
then run closures").
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence

from ..ir import instructions as inst
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..ir.values import (Argument, BasicBlock, Constant, Function,
                         GlobalVariable, UndefValue, Value)
from .machine import Machine, STACK_SIZE
from .values import scalar_size, to_signed, to_unsigned


class InterpreterError(Exception):
    pass


class BadFunctionPointer(InterpreterError):
    """Indirect call through an address that is not a function entry point
    on this machine — e.g. a *mobile* code address dereferenced on the
    server without function-pointer mapping."""

    def __init__(self, address: int):
        super().__init__(f"indirect call to non-function address {address:#x}")
        self.address = address


class StackOverflow(InterpreterError):
    pass


class ExecutionLimitExceeded(InterpreterError):
    pass


class ExitProgram(Exception):
    """Raised by the exit() builtin to unwind the interpreter."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


class Observer:
    """Hook interface for profilers and the offload runtime.  All methods
    are optional no-ops.  ``wants_memory`` / ``wants_blocks`` let cheap
    observers (e.g. the runtime's target timer) opt out of the hot
    per-access and per-block callbacks."""

    wants_memory = True
    wants_blocks = True

    def enter_function(self, fn: Function, cycles: float) -> None:
        pass

    def exit_function(self, fn: Function, cycles: float) -> None:
        pass

    def enter_block(self, block: BasicBlock, cycles: float) -> None:
        pass

    def memory_access(self, address: int, size: int, is_write: bool) -> None:
        pass

    def heap_alloc(self, size: int) -> None:
        pass


_DIV_OPS = {"sdiv", "udiv", "srem", "urem", "fdiv", "frem"}
_MASK64 = 0xFFFFFFFFFFFFFFFF
# What a frame slot holds until the instruction that defines it has run.
_UNDEFINED = object()


class Interpreter:
    """Executes IR on a :class:`Machine`."""

    def __init__(self, machine: Machine,
                 observer: Optional[Observer] = None,
                 max_instructions: int = 500_000_000):
        self.machine = machine
        self.observer = observer
        self._mem_observer = (observer if observer is not None
                              and observer.wants_memory else None)
        self._block_observer = (observer if observer is not None
                                and observer.wants_blocks else None)
        self.max_instructions = max_instructions
        self.sp = machine.stack_top
        self.instruction_count = 0
        self.cycles = 0.0
        self.call_depth = 0
        # Deep guest recursion needs several Python frames per guest
        # frame; lift the interpreter limit so the *simulated* stack (or
        # the call-depth guard) is what overflows, deterministically.
        if sys.getrecursionlimit() < 30000:
            sys.setrecursionlimit(30000)
        from ..targets.arch import CYCLE_TIME_SCALE
        self._scale = CYCLE_TIME_SCALE
        self._cycle_table = {k: v * self._scale
                             for k, v in machine.arch.cycles.items()}
        # Function -> (decoded blocks, frame size), filled on first call.
        # Layout, addresses and observer are fixed for an interpreter's
        # lifetime, so a decoded function never goes stale.
        self._decoded: Dict[Function, tuple] = {}

    # -- accounting -----------------------------------------------------
    # ``cycles`` is a running sum of non-dyadic floats: one add per charge,
    # in program order, or every simulated number moves.
    def charge(self, inst_class: str, count: float = 1.0) -> None:
        self.cycles += self._cycle_table[inst_class] * count

    def charge_raw_cycles(self, cycles: float,
                          inst_class: str = "alu") -> None:
        """Charge unscaled cycles — for runtime services whose cost is a
        real machine-cycle figure (e.g. a hash-table lookup), not an
        IR-operation bundle."""
        self.cycles += cycles

    @property
    def time_seconds(self) -> float:
        return self.cycles / self.machine.arch.clock_hz

    # -- entry points ---------------------------------------------------
    def call_by_name(self, name: str, args: Sequence = ()):
        fn = self.machine.module.function(name)
        return self.call_function(fn, list(args))

    def run_main(self, argv: Sequence[str] = ()) -> int:
        """Execute ``main`` like a C runtime would; returns the exit code."""
        main = self.machine.module.get_function("main")
        if main is None:
            raise InterpreterError("module has no main function")
        args: List = []
        if len(main.ftype.params) >= 1:
            args.append(to_unsigned(len(argv) + 1, 32))
        if len(main.ftype.params) >= 2:
            args.append(0)  # argv pointer: not modelled
        try:
            result = self.call_function(main, args)
        except ExitProgram as exit_:
            return exit_.code
        return to_signed(result, 32) if result is not None else 0

    # -- call machinery --------------------------------------------------
    def call_function(self, fn: Function, args: List):
        if not fn.is_definition:
            return self._call_external(fn, args)
        if self.call_depth > 4000:
            raise StackOverflow(f"call depth exceeded in {fn.name}")
        self.charge("call")
        if self.observer is not None:
            self.observer.enter_function(fn, self.cycles)
        saved_sp = self.sp
        self.call_depth += 1
        try:
            result = self._run(fn, args)
        finally:
            self.call_depth -= 1
            self.sp = saved_sp
            if self.observer is not None:
                self.observer.exit_function(fn, self.cycles)
        return result

    def _call_external(self, fn: Function, args: List):
        builtin = self.machine.builtins.get(fn.name)
        if builtin is None:
            raise InterpreterError(
                f"call to unknown external function {fn.name}")
        self.charge("call")
        return builtin(self, args)

    # -- the run loop ---------------------------------------------------
    def _run(self, fn: Function, args: Sequence):
        decoded = self._decoded.get(fn)
        if decoded is None:
            decoded = self._decoded[fn] = _Decoder(self, fn).decode()
        blocks, frame_size = decoded
        frame = [_UNDEFINED] * frame_size
        passed = min(len(args), len(fn.args))
        frame[:passed] = args[:passed]
        observer = self._block_observer
        limit = self.max_instructions
        index = 0
        while True:
            steps, count, block, returns = blocks[index]
            if observer is not None:
                observer.enter_block(block, self.cycles)
            allowed = limit - self.instruction_count
            if count > allowed:
                # Instruction ``allowed + 1`` is counted and raises, as a
                # per-instruction check would.
                steps = steps[:max(allowed, 0)] + [(0.0, 0, _limit_exceeded)]
            # The block is counted on entry; whatever unwinds out of it
            # (exit(), a fleet segment boundary, a link fault, a guest
            # error) gives back the instructions that never started, and a
            # call gives them back while the callee runs (decode_call), so
            # the count is exact wherever it can be read.
            self.instruction_count += count
            step = None
            try:
                for step in steps:
                    cost, dst, op = step
                    self.cycles += cost
                    frame[dst] = op(self, frame)
            except BaseException:
                started = 0 if step is None else steps.index(step) + 1
                self.instruction_count -= count - min(started, count)
                raise
            if returns:
                return frame[dst]
            index = frame[dst]  # the terminator's result


def _limit_exceeded(interp: Interpreter, frame: list):
    raise ExecutionLimitExceeded(
        f"exceeded {interp.max_instructions} instructions")


def _unknown(message: str) -> Callable:
    """Stands in for an op, operand getter or value function that does not
    exist: malformed IR is reported if and when it is reached."""
    def fail(*_):
        raise InterpreterError(message)
    return fail


class _Decoder:
    """Turns one function into closures for one interpreter's machine.

    Every argument and instruction gets a frame slot.  An operand becomes a
    getter ``get(frame)``: an immediate or a slot read.  An instruction
    becomes a step ``(cost, slot, op)``: the run loop charges ``cost`` —
    bound as :meth:`Interpreter.charge` computes it — and stores
    ``op(interp, frame)`` in the slot; masks, sizes, codecs, scales and the
    memory's page table are bound in ``op``.  A terminator's value is the
    next block's index, or what the function returns.  Ops take the
    interpreter as an argument and never capture it: it owns the decoded
    program, so a captured interpreter is a reference cycle that keeps
    every dropped interpreter's program alive until a generation-2
    collection.
    """

    def __init__(self, interp: Interpreter, fn: Function):
        self.fn = fn
        self.machine = interp.machine
        self.layout = interp.machine.layout
        self.costs = interp._cycle_table
        self.mem_observer = interp._mem_observer
        page_size = interp.machine.memory.page_size
        self.page_shift = page_size.bit_length() - 1
        self.offset_mask = page_size - 1
        self.slots = {value: slot for slot, value in enumerate(
            (*fn.args, *fn.instructions()))}
        self.block_index = {block: i for i, block in enumerate(fn.blocks)}
        self.defined: set = set()  # values a slot read need not check
        self.after = 0  # instructions of the block after the current one

    def decode(self) -> tuple:
        """(blocks, frame size); a block is (steps, instruction count, the
        ``BasicBlock``, whether its terminator returns from the function)."""
        fn = self.fn
        # The entry block has run to its terminator before any other block
        # starts, and a block's earlier instructions before its later ones.
        entry_defined = set(fn.entry.instructions)
        blocks = []
        for block in fn.blocks:
            self.defined = set() if block is fn.entry else set(entry_defined)
            instructions = block.instructions
            count = next((i + 1 for i, instruction in enumerate(instructions)
                          if instruction.is_terminator), len(instructions))
            steps = []
            for position, instruction in enumerate(instructions[:count]):
                self.after = count - position - 1
                build = getattr(self, "decode_" + instruction.opcode, None)
                cost, op = (build(instruction) if build else (0.0, _unknown(
                    f"unknown opcode {instruction.opcode}")))
                steps.append((cost, self.slots[instruction], op))
                self.defined.add(instruction)
            last = instructions[count - 1] if count else None
            if last is None or not last.is_terminator:
                steps.append((0.0, 0, _unknown(
                    f"block {block.name} in {fn.name} fell through")))
            blocks.append((steps, count, block,
                           last is not None and last.opcode == "ret"))
        return blocks, len(self.slots)

    def operand(self, value: Value) -> Callable[[list], object]:
        if isinstance(value, Constant):
            immediate = value.value
        elif isinstance(value, (inst.Instruction, Argument)):
            slot = self.slots[value]
            if value in self.defined:
                return itemgetter(slot)
            # The verifier does not check dominance, so a use the block
            # structure does not prove defined is checked when it is read
            # (and every argument: the caller may pass too few).
            message = f"use of undefined value {value.short()}"

            def checked(frame):
                result = frame[slot]
                if result is _UNDEFINED:
                    raise InterpreterError(message)
                return result
            return checked
        elif isinstance(value, GlobalVariable):
            immediate = self.machine.global_addresses[value.name]
        elif isinstance(value, Function):
            immediate = self.machine.function_addresses[value.name]
        elif isinstance(value, UndefValue):
            immediate = 0
        else:
            return _unknown(f"cannot evaluate {value!r}")
        return lambda frame: immediate

    # -- one method per opcode: (leading charge, op) ---------------------
    def decode_binop(self, instruction: inst.BinOp) -> tuple:
        name = instruction.op
        cost = self.costs["div" if name in _DIV_OPS
                          else "fpu" if name.startswith("f") else "alu"]
        lhs = self.operand(instruction.lhs)
        rhs = self.operand(instruction.rhs)
        if isinstance(instruction.type, FloatType):
            table, kind = _FLOAT_BINOPS, "float"
        else:
            table, kind = _int_binops(instruction.type.bits), "int"
        compute = table.get(name) or _unknown(f"unknown {kind} binop {name}")
        return cost, lambda interp, frame: compute(lhs(frame), rhs(frame))

    def decode_cmp(self, instruction: inst.Cmp) -> tuple:
        pred = instruction.pred
        lhs = self.operand(instruction.lhs)
        rhs = self.operand(instruction.rhs)
        if pred.startswith("f"):
            cost = self.costs["fpu"]
            test = _FLOAT_CMPS.get(pred) or _unknown(
                f"unknown float predicate {pred}")
        else:
            cost = self.costs["alu"]
            type_ = instruction.lhs.type  # pointers compare at their width
            test = _int_cmp(pred, type_.bits if isinstance(type_, IntType)
                            else self.layout.pointer_bytes * 8)
        return cost, (lambda interp, frame:
                      1 if test(lhs(frame), rhs(frame)) else 0)

    def _access(self, type_) -> tuple:
        """How this machine loads or stores a ``type_``: (size, the
        ``struct.Struct`` of a float else None, cost of the address-size
        conversion or None, cost of the byte swap or None)."""
        machine, layout = self.machine, self.layout
        if not type_.is_scalar:
            raise InterpreterError(
                f"aggregate access of {type_}; the frontend must lower "
                "struct copies to memcpy")
        size = scalar_size(type_, layout)
        codec = None
        if type_.is_float:
            codec = struct.Struct(
                ("<" if layout.byte_order == "little" else ">")
                + ("f" if type_.bits == 32 else "d"))
        # Address-size conversion (Section 3.2): zero/trunc-extend on every
        # pointer-sized memory access.  Negligible cost, counted.
        converts = (isinstance(type_, PointerType)
                    and layout.pointer_bytes != machine.arch.pointer_bytes)
        # Endianness translation (Section 3.2): byte swap per access.
        swaps = size > 1 and layout.byte_order != machine.arch.endianness
        return (size, codec, self.costs["alu"] * 0.5 if converts else None,
                self.costs["alu"] * 1.0 if swaps else None)

    def decode_load(self, instruction: inst.Load) -> tuple:
        try:
            size, codec, convert_cost, swap_cost = self._access(
                instruction.type)
        except InterpreterError as error:
            return self.costs["mem"], _unknown(str(error))
        pointer = self.operand(instruction.pointer)
        machine, observer = self.machine, self.mem_observer
        memory, order = machine.memory, self.layout.byte_order
        read, page_at = memory.read, memory.pages.get
        shift, offset_mask = self.page_shift, self.offset_mask
        in_page = memory.page_size - size  # the last offset that fits
        from_bytes = int.from_bytes
        unpack = None if codec is None else codec.unpack

        def op(interp, frame):
            address = pointer(frame)
            if observer is not None:
                observer.memory_access(address, size, False)
            index = address >> shift
            offset = address & offset_mask
            page = page_at(index)
            if page is None or offset > in_page:
                data = read(address, size)  # fault, or straddles two pages
            else:
                touched = memory.touched
                if touched is not None:
                    touched.add(index)
                data = page[offset:offset + size]
            if convert_cost is not None:
                machine.pointer_conversions += 1
                interp.cycles += convert_cost
            if swap_cost is not None:
                machine.endian_swaps += 1
                interp.cycles += swap_cost
            return from_bytes(data, order) if unpack is None else unpack(
                data)[0]
        return self.costs["mem"], op

    def decode_store(self, instruction: inst.Store) -> tuple:
        try:
            size, codec, convert_cost, swap_cost = self._access(
                instruction.value.type)
        except InterpreterError as error:
            return self.costs["mem"], _unknown(str(error))
        pointer = self.operand(instruction.pointer)
        source = self.operand(instruction.value)
        machine, observer = self.machine, self.mem_observer
        memory, order = machine.memory, self.layout.byte_order
        write, page_at = memory.write, memory.pages.get
        mark_dirty, dirty_blocks = memory.dirty.add, memory.dirty_blocks
        mark_blocks, block_shift = memory.mark_blocks, memory.block_shift
        shift, offset_mask = self.page_shift, self.offset_mask
        in_page = memory.page_size - size  # the last offset that fits
        too_wide = 1 << (size * 8)
        pack = None if codec is None else codec.pack

        def op(interp, frame):
            address = pointer(frame)
            value = source(frame)
            if observer is not None:
                observer.memory_access(address, size, True)
            if convert_cost is not None:
                machine.pointer_conversions += 1
                interp.cycles += convert_cost
            if swap_cost is not None:
                machine.endian_swaps += 1
                interp.cycles += swap_cost
            if pack is not None:
                data = pack(value)
            elif value < too_wide:
                data = value.to_bytes(size, order)
            else:
                raise OverflowError(
                    f"pointer {value:#x} does not fit in {size} bytes; "
                    "UVA addresses must stay below the unified pointer "
                    "range")
            index = address >> shift
            offset = address & offset_mask
            page = page_at(index)
            if page is None or offset > in_page:
                write(address, data)  # fault, or straddles two pages
                return
            page[offset:offset + size] = data
            mark_dirty(index)
            if memory.track_subpage:
                block = offset >> block_shift
                if (offset + size - 1) >> block_shift == block:
                    dirty_blocks[index] = (dirty_blocks.get(index, 0)
                                           | 1 << block)
                else:
                    mark_blocks(index, offset, size)
            touched = memory.touched
            if touched is not None:
                touched.add(index)
        return self.costs["mem"], op

    def decode_gep(self, instruction: inst.Gep) -> tuple:
        cost = self.costs["alu"]
        layout = self.layout
        base = self.operand(instruction.base)
        current = instruction.base.type.pointee
        constant = 0  # struct field offsets and constant indices, folded
        scaled = []   # (index getter, mask, sign bit, scale)
        for position, index in enumerate(instruction.indices):
            if position and isinstance(current, StructType):
                field = int(index.value)  # verified constant
                constant += layout.struct_layout(current).offset_of(field)
                current = current.field_types[field]
                continue
            if position:  # the first index scales by whole pointees
                if not isinstance(current, ArrayType):
                    return cost, _unknown(
                        f"gep into non-aggregate {current}")
                current = current.element
            scale = layout.size_of(current)
            bits = index.type.bits if isinstance(index.type, IntType) else 64
            if isinstance(index, Constant):
                constant += to_signed(index.value, bits) * scale
            else:
                scaled.append((self.operand(index), (1 << bits) - 1,
                               1 << (bits - 1), scale))

        def op(interp, frame):
            address = base(frame) + constant
            for index, mask, sign, scale in scaled:
                address += (((index(frame) & mask) ^ sign) - sign) * scale
            return address & _MASK64
        return cost, op

    def decode_cast(self, instruction: inst.Cast) -> tuple:
        value = self.operand(instruction.value)
        convert = _cast(instruction.op, instruction.value.type,
                        instruction.type)
        return self.costs["alu"], lambda interp, frame: convert(value(frame))

    def decode_alloca(self, instruction: inst.Alloca) -> tuple:
        size = max(1, self.layout.size_of(instruction.allocated_type))
        size = (size + 15) // 16 * 16
        floor = self.machine.stack_top - STACK_SIZE
        map_range = self.machine.map_range

        def op(interp, frame):
            interp.sp = sp = interp.sp - size
            if sp < floor:
                raise StackOverflow("simulated stack exhausted")
            map_range(sp, size)
            return sp
        return self.costs["alu"], op

    def decode_call(self, instruction: inst.Call) -> tuple:
        args = [self.operand(arg) for arg in instruction.args]
        callee = instruction.callee
        direct = callee if isinstance(callee, Function) else None
        target = None if direct is not None else self.operand(callee)
        function_at = self.machine.function_at
        after = self.after

        def op(interp, frame):
            values = [arg(frame) for arg in args]
            fn = direct
            if fn is None:
                # Indirect call: resolve the runtime address to a function
                # on *this* machine.  Untranslated foreign addresses fault
                # here.
                address = target(frame)
                fn = function_at(address)
                if fn is None:
                    raise BadFunctionPointer(address)
            # The rest of this block is counted but has not started: the
            # callee's limit check and builtins must not see it.
            interp.instruction_count -= after
            try:
                return interp.call_function(fn, values)
            finally:
                interp.instruction_count += after
        return 0.0, op  # call_function charges

    def decode_select(self, instruction: inst.Select) -> tuple:
        cond, if_true, if_false = map(self.operand, instruction.operands)
        return self.costs["alu"], (
            lambda interp, frame:
            (if_true if cond(frame) else if_false)(frame))

    def decode_asm(self, instruction: inst.InlineAsm) -> tuple:
        # Inline assembly executes natively on its home machine; charge a
        # token cost.
        return self.costs["alu"], lambda interp, frame: None

    def decode_syscall(self, instruction: inst.Syscall) -> tuple:
        return self.costs["call"], lambda interp, frame: 0

    def decode_br(self, instruction: inst.Br) -> tuple:
        target = self.block_index[instruction.target]
        return self.costs["branch"], lambda interp, frame: target

    def decode_condbr(self, instruction: inst.CondBr) -> tuple:
        cond = self.operand(instruction.cond)
        if_true = self.block_index[instruction.if_true]
        if_false = self.block_index[instruction.if_false]
        return self.costs["branch"], (
            lambda interp, frame: if_true if cond(frame) else if_false)

    def decode_switch(self, instruction: inst.Switch) -> tuple:
        value = self.operand(instruction.value)
        default = self.block_index[instruction.default]
        targets: Dict[int, int] = {}
        for const, block in instruction.cases:  # the first match wins
            targets.setdefault(const & _MASK64, self.block_index[block])
        return self.costs["branch"], (
            lambda interp, frame:
            targets.get(value(frame) & _MASK64, default))

    def decode_ret(self, instruction: inst.Ret) -> tuple:
        if instruction.value is None:
            return self.costs["branch"], lambda interp, frame: None
        value = self.operand(instruction.value)
        return self.costs["branch"], lambda interp, frame: value(frame)

    def decode_unreachable(self, instruction: inst.Unreachable) -> tuple:
        return 0.0, _unknown(f"reached unreachable in {self.fn.name}")


# -- value functions, chosen once per instruction at decode time ----------

@functools.lru_cache(maxsize=None)
def _int_binops(bits: int) -> Dict[str, Callable[[int, int], int]]:
    """The integer binops at one width (a handful of widths exist)."""
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)

    def signed(value):
        return ((value & mask) ^ sign) - sign

    def divides(compute, what):
        def checked(lhs, rhs):
            if rhs & mask == 0:
                raise InterpreterError(f"integer {what} by zero")
            return compute(lhs, rhs) & mask
        return checked

    def sdiv(lhs, rhs):
        # C truncates toward zero.  ``int(a / b)`` goes through a float
        # and is wrong above 2**53.
        a, b = signed(lhs), signed(rhs)
        quotient = abs(a) // abs(b)
        return -quotient if (a < 0) != (b < 0) else quotient

    def srem(lhs, rhs):  # the sign follows the dividend
        a = signed(lhs)
        remainder = abs(a) % abs(signed(rhs))
        return -remainder if a < 0 else remainder

    return {
        "add": lambda lhs, rhs: (lhs + rhs) & mask,
        "sub": lambda lhs, rhs: (lhs - rhs) & mask,
        "mul": lambda lhs, rhs: (lhs * rhs) & mask,
        "sdiv": divides(sdiv, "division"),
        "udiv": divides(operator.floordiv, "division"),
        "srem": divides(srem, "remainder"),
        "urem": divides(operator.mod, "remainder"),
        "and": operator.and_, "or": operator.or_, "xor": operator.xor,
        "shl": lambda lhs, rhs: (lhs << (rhs % bits)) & mask,
        "lshr": lambda lhs, rhs: lhs >> (rhs % bits),
        "ashr": lambda lhs, rhs: (signed(lhs) >> (rhs % bits)) & mask,
    }


def _fdiv(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return float("inf") if lhs > 0 else (
            float("-inf") if lhs < 0 else float("nan"))
    return lhs / rhs


_FLOAT_BINOPS = {"fadd": operator.add, "fsub": operator.sub,
                 "fmul": operator.mul, "fdiv": _fdiv, "frem": math.fmod}
_FLOAT_CMPS = {"feq": operator.eq, "fne": operator.ne, "flt": operator.lt,
               "fle": operator.le, "fgt": operator.gt, "fge": operator.ge}
_UNSIGNED_CMPS = {"eq": operator.eq, "ne": operator.ne, "ult": operator.lt,
                  "ule": operator.le, "ugt": operator.gt, "uge": operator.ge}
_SIGNED_CMPS = {"slt": operator.lt, "sle": operator.le,
                "sgt": operator.gt, "sge": operator.ge}


def _int_cmp(pred: str, bits: int) -> Callable[[int, int], bool]:
    if pred in _UNSIGNED_CMPS:
        return _UNSIGNED_CMPS[pred]
    test = _SIGNED_CMPS.get(pred)
    if test is None:
        return _unknown(f"unknown int predicate {pred}")
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    # Flipping the sign bit maps signed order onto unsigned order.
    return lambda lhs, rhs: test((lhs & mask) ^ sign, (rhs & mask) ^ sign)


def _cast(name: str, src, dst) -> Callable:
    if name in ("trunc", "zext", "sext", "ptrtoint", "fptosi", "fptoui"):
        mask = (1 << dst.bits) - 1
        if name == "sext":
            narrow, sign = (1 << src.bits) - 1, 1 << (src.bits - 1)
            return lambda value: (((value & narrow) ^ sign) - sign) & mask
        if name == "fptosi":
            return lambda value: int(value) & mask
        if name == "fptoui":
            return lambda value: int(abs(value)) & mask
        return lambda value: value & mask
    if name in ("fptrunc", "fpext", "uitofp"):
        return float
    if name == "sitofp":
        return lambda value: float(to_signed(value, src.bits))
    if name == "inttoptr":
        return lambda value: value & _MASK64
    if name == "bitcast":
        return lambda value: value
    return _unknown(f"unknown cast {name}")
