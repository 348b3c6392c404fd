"""Instruction set of the IR.

The set deliberately mirrors the LLVM subset the Native Offloader passes care
about: memory operations (the unification passes rewrite them), calls (direct
and through function pointers), address arithmetic that is layout-sensitive
(:class:`Gep`), and machine-specific markers (:class:`InlineAsm`,
:class:`Syscall`) that the function filter must detect.

Mutable local variables are modelled with ``alloca``/``load``/``store`` as in
clang -O0 output, so there is no phi instruction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .types import (ArrayType, FunctionType, IRType, PointerType, StructType,
                    VOID, I1)
from .values import BasicBlock, Function, Value

# Integer / float binary opcodes.  Signedness is encoded in the opcode.
INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
BINOPS = INT_BINOPS | FLOAT_BINOPS

INT_PREDS = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
FLOAT_PREDS = {"feq", "fne", "flt", "fle", "fgt", "fge"}
CMP_PREDS = INT_PREDS | FLOAT_PREDS

CAST_OPS = {
    "trunc", "zext", "sext",
    "fptrunc", "fpext", "fptosi", "fptoui", "sitofp", "uitofp",
    "ptrtoint", "inttoptr", "bitcast",
}


class Instruction(Value):
    """Base class.  An instruction is a value (its result)."""

    opcode = "<abstract>"
    is_terminator = False

    def __init__(self, type: IRType, operands: Sequence[Value], name: str = ""):
        super().__init__(type, name)
        self.operands: List[Value] = list(operands)
        self.parent: Optional[BasicBlock] = None

    def targets(self) -> List[BasicBlock]:
        """Successor blocks (terminators only)."""
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        self.operands = [new if op is old else op for op in self.operands]

    @property
    def function(self) -> Optional[Function]:
        return self.parent.parent if self.parent is not None else None


class Alloca(Instruction):
    """Stack allocation of one object of ``allocated_type``."""

    opcode = "alloca"

    def __init__(self, allocated_type: IRType, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type


class Load(Instruction):
    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer:
            raise TypeError(f"load from non-pointer {pointer.type}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer:
            raise TypeError(f"store to non-pointer {pointer.type}")
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class Gep(Instruction):
    """``getelementptr``: layout-sensitive address arithmetic.

    ``base`` points at a value of ``source_type``; ``indices`` follow LLVM
    semantics (first index scales by whole objects, struct indices must be
    integer constants).  Byte offsets are *not* computed here — they depend
    on the active memory layout of the executing machine, which is exactly
    what memory-layout realignment manipulates.
    """

    opcode = "gep"

    def __init__(self, base: Value, indices: Sequence[Value], name: str = ""):
        if not base.type.is_pointer:
            raise TypeError("gep base must be a pointer")
        result = base.type.pointee
        for idx in indices[1:]:
            if isinstance(result, StructType):
                from .values import Constant
                if not isinstance(idx, Constant):
                    raise TypeError("struct gep index must be constant")
                result = result.field_types[int(idx.value)]
            elif isinstance(result, ArrayType):
                result = result.element
            else:
                raise TypeError(f"cannot index into {result}")
        super().__init__(PointerType(result), [base, *indices], name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]


class BinOp(Instruction):
    opcode = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINOPS:
            raise ValueError(f"unknown binary opcode {op}")
        if lhs.type != rhs.type:
            raise TypeError(f"binop operand type mismatch: {lhs.type} vs {rhs.type}")
        if op in FLOAT_BINOPS and not lhs.type.is_float:
            raise TypeError(f"{op} requires float operands")
        if op in INT_BINOPS and not lhs.type.is_integer:
            raise TypeError(f"{op} requires integer operands")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Cmp(Instruction):
    opcode = "cmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in CMP_PREDS:
            raise ValueError(f"unknown comparison predicate {pred}")
        if lhs.type != rhs.type:
            raise TypeError("cmp operand type mismatch")
        super().__init__(I1, [lhs, rhs], name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Cast(Instruction):
    opcode = "cast"

    def __init__(self, op: str, value: Value, to_type: IRType, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {op}")
        super().__init__(to_type, [value], name)
        self.op = op

    @property
    def value(self) -> Value:
        return self.operands[0]


class Select(Instruction):
    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value,
                 name: str = ""):
        if if_true.type != if_false.type:
            raise TypeError("select arm type mismatch")
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def cond(self) -> Value:
        return self.operands[0]


class Call(Instruction):
    """Direct (callee is a :class:`Function`) or indirect (callee is a
    function-pointer value) call.  Indirect calls are what the function
    pointer mapping optimization (Section 3.4) rewrites."""

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        ftype = callee.type.pointee if callee.type.is_pointer else callee.type
        if not isinstance(ftype, FunctionType):
            raise TypeError(f"call to non-function type {callee.type}")
        if not ftype.variadic and len(args) != len(ftype.params):
            raise TypeError(
                f"call to {callee.short()} with {len(args)} args, "
                f"expected {len(ftype.params)}")
        super().__init__(ftype.ret, [callee, *args], name)
        self.ftype = ftype

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    @property
    def is_indirect(self) -> bool:
        return not isinstance(self.callee, Function)

    @property
    def called_function(self) -> Optional[Function]:
        callee = self.callee
        return callee if isinstance(callee, Function) else None


class InlineAsm(Instruction):
    """Inline assembly marker — always machine specific (Section 3.1)."""

    opcode = "asm"

    def __init__(self, text: str, operands: Sequence[Value] = ()):
        super().__init__(VOID, list(operands))
        self.text = text


class Syscall(Instruction):
    """Direct system call marker — always machine specific (Section 3.1)."""

    opcode = "syscall"

    def __init__(self, number: int, operands: Sequence[Value] = ()):
        from .types import I64
        super().__init__(I64, list(operands))
        self.number = number


class Br(Instruction):
    opcode = "br"
    is_terminator = True

    def __init__(self, target: BasicBlock):
        super().__init__(VOID, [])
        self.target = target

    def targets(self) -> List[BasicBlock]:
        return [self.target]


class CondBr(Instruction):
    opcode = "condbr"
    is_terminator = True

    def __init__(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock):
        if cond.type != I1:
            raise TypeError("condbr condition must be i1")
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def targets(self) -> List[BasicBlock]:
        return [self.if_true, self.if_false]


class Switch(Instruction):
    """Multi-way branch; used by the server partition's dispatch loop."""

    opcode = "switch"
    is_terminator = True

    def __init__(self, value: Value, default: BasicBlock,
                 cases: Sequence[tuple] = ()):
        if not value.type.is_integer:
            raise TypeError("switch value must be an integer")
        super().__init__(VOID, [value])
        self.default = default
        self.cases: List[tuple] = list(cases)  # [(int, BasicBlock)]

    @property
    def value(self) -> Value:
        return self.operands[0]

    def add_case(self, const: int, block: BasicBlock) -> None:
        self.cases.append((const, block))

    def targets(self) -> List[BasicBlock]:
        return [self.default] + [b for _, b in self.cases]


class Ret(Instruction):
    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Unreachable(Instruction):
    opcode = "unreachable"
    is_terminator = True

    def __init__(self):
        super().__init__(VOID, [])
