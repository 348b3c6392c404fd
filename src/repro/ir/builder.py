"""Convenience builder for constructing IR.

Used by the mini-C code generator, the offload compiler (to synthesize
communication stubs, the server dispatch loop, translation thunks) and by
tests that build IR by hand.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from . import instructions as inst
from .types import IRType, I1, I32, I64, F64
from .values import BasicBlock, Constant, Value


class IRBuilder:
    """Appends instructions to a current insertion block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        self._counter = 0

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _name(self, hint: str) -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    def _emit(self, instruction: inst.Instruction) -> inst.Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        if self.block.terminator is not None:
            raise RuntimeError(
                f"block {self.block.name} already has a terminator")
        self.block.append(instruction)
        return instruction

    # -- constants ----------------------------------------------------------
    def const(self, type: IRType, value: Union[int, float]) -> Constant:
        return Constant(type, value)

    def i32(self, value: int) -> Constant:
        return Constant(I32, value)

    def i64(self, value: int) -> Constant:
        return Constant(I64, value)

    def f64(self, value: float) -> Constant:
        return Constant(F64, value)

    def true(self) -> Constant:
        return Constant(I1, 1)

    def false(self) -> Constant:
        return Constant(I1, 0)

    # -- memory ---------------------------------------------------------
    def alloca(self, type: IRType, name: str = "") -> inst.Alloca:
        return self._emit(inst.Alloca(type, name or self._name("ptr")))

    def load(self, pointer: Value, name: str = "") -> inst.Load:
        return self._emit(inst.Load(pointer, name or self._name("val")))

    def store(self, value: Value, pointer: Value) -> inst.Store:
        return self._emit(inst.Store(value, pointer))

    def gep(self, base: Value, indices: Sequence[Value],
            name: str = "") -> inst.Gep:
        return self._emit(inst.Gep(base, indices, name or self._name("addr")))

    def struct_gep(self, base: Value, field_index: int,
                   name: str = "") -> inst.Gep:
        """GEP to a struct field: gep base, [0, field_index]."""
        return self.gep(base, [self.i32(0), self.i32(field_index)], name)

    def index(self, base: Value, idx: Value, name: str = "") -> inst.Gep:
        """Pointer arithmetic: &base[idx] on a pointer-to-element."""
        return self.gep(base, [idx], name)

    # -- arithmetic -----------------------------------------------------
    def binop(self, op: str, lhs: Value, rhs: Value,
              name: str = "") -> inst.BinOp:
        return self._emit(inst.BinOp(op, lhs, rhs, name or self._name("tmp")))

    def add(self, lhs, rhs, name=""):
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs, rhs, name=""):
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs, rhs, name=""):
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs, rhs, name=""):
        return self.binop("sdiv", lhs, rhs, name)

    def srem(self, lhs, rhs, name=""):
        return self.binop("srem", lhs, rhs, name)

    def fadd(self, lhs, rhs, name=""):
        return self.binop("fadd", lhs, rhs, name)

    def fsub(self, lhs, rhs, name=""):
        return self.binop("fsub", lhs, rhs, name)

    def fmul(self, lhs, rhs, name=""):
        return self.binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs, rhs, name=""):
        return self.binop("fdiv", lhs, rhs, name)

    def cmp(self, pred: str, lhs: Value, rhs: Value,
            name: str = "") -> inst.Cmp:
        return self._emit(inst.Cmp(pred, lhs, rhs, name or self._name("cond")))

    def cast(self, op: str, value: Value, to_type: IRType,
             name: str = "") -> inst.Cast:
        return self._emit(
            inst.Cast(op, value, to_type, name or self._name("cast")))

    def zext(self, value, to_type, name=""):
        return self.cast("zext", value, to_type, name)

    def sext(self, value, to_type, name=""):
        return self.cast("sext", value, to_type, name)

    def trunc(self, value, to_type, name=""):
        return self.cast("trunc", value, to_type, name)

    def bitcast(self, value, to_type, name=""):
        return self.cast("bitcast", value, to_type, name)

    def sitofp(self, value, to_type, name=""):
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value, to_type, name=""):
        return self.cast("fptosi", value, to_type, name)

    def select(self, cond: Value, if_true: Value, if_false: Value,
               name: str = "") -> inst.Select:
        return self._emit(
            inst.Select(cond, if_true, if_false, name or self._name("sel")))

    # -- calls ----------------------------------------------------------
    def call(self, callee: Value, args: Sequence[Value] = (),
             name: str = "") -> inst.Call:
        hint = name
        if not hint:
            ftype = (callee.type.pointee
                     if callee.type.is_pointer else callee.type)
            hint = "" if ftype.ret.is_void else self._name("ret")
        return self._emit(inst.Call(callee, list(args), hint))

    def asm(self, text: str, operands: Sequence[Value] = ()) -> inst.InlineAsm:
        return self._emit(inst.InlineAsm(text, operands))

    def syscall(self, number: int,
                operands: Sequence[Value] = ()) -> inst.Syscall:
        return self._emit(inst.Syscall(number, operands))

    # -- control flow ----------------------------------------------------
    def br(self, target: BasicBlock) -> inst.Br:
        return self._emit(inst.Br(target))

    def condbr(self, cond: Value, if_true: BasicBlock,
               if_false: BasicBlock) -> inst.CondBr:
        return self._emit(inst.CondBr(cond, if_true, if_false))

    def switch(self, value: Value, default: BasicBlock) -> inst.Switch:
        return self._emit(inst.Switch(value, default))

    def ret(self, value: Optional[Value] = None) -> inst.Ret:
        return self._emit(inst.Ret(value))

    def unreachable(self) -> inst.Unreachable:
        return self._emit(inst.Unreachable())
