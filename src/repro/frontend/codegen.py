"""IR code generation from the mini-C AST.

The lowering mirrors clang -O0: every local variable is an alloca, struct
copies become memcpy calls, struct arguments are passed by caller-made copy
and struct returns via a leading sret pointer.  ``sizeof`` is baked against
the *mobile* target layout, because — exactly as in the paper — the single
IR stream is derived from the mobile build, and memory unification later
imposes the mobile layout on the server as well.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Set, Tuple

from ..ir import types as irt
from ..ir.builder import IRBuilder
from ..ir.module import Module
from ..ir.values import (AggregateInit, BytesInit, Constant, Function,
                         FunctionRefInit, GlobalRefInit, GlobalVariable,
                         Initializer, ScalarInit, Value, ZeroInit)
from ..targets.abi import DataLayout
from ..targets.arch import TargetArch
from ..targets.presets import ARM32
from . import c_ast as ast
from . import ctypes as ct
from .builtins import BUILTIN_SIGNATURES


class CodegenError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class _FuncInfo:
    """Lowered signature of a source-level function."""

    def __init__(self, ctype: ct.CFunc, ir_fn: Function, sret: bool,
                 param_ctypes: List[ct.CType]):
        self.ctype = ctype
        self.ir_fn = ir_fn
        self.sret = sret
        self.param_ctypes = param_ctypes


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.bindings: Dict[str, Tuple[str, object, ct.CType]] = {}

    def define(self, name: str, kind: str, value, ctype: ct.CType) -> None:
        self.bindings[name] = (kind, value, ctype)

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None


class CodeGen:
    """Compiles a parsed translation unit into an IR module."""

    def __init__(self, target: TargetArch = ARM32):
        self.target = target
        self.layout = DataLayout(target)
        self.module = Module()
        self.typedefs: Dict[str, ct.CType] = {}
        self.structs: Dict[str, ct.CStruct] = {}
        self.functions: Dict[str, _FuncInfo] = {}
        self.global_scope = _Scope()
        self.scope = self.global_scope
        self._strings: Dict[str, GlobalVariable] = {}
        self._tmp = 0
        # per-function state
        self.builder: Optional[IRBuilder] = None
        self.alloca_builder: Optional[IRBuilder] = None
        self.current: Optional[_FuncInfo] = None
        self.sret_ptr: Optional[Value] = None
        self._break_stack: List = []
        self._continue_stack: List = []
        self._block_counter = 0

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def compile(self, unit: ast.TranslationUnit,
                name: str = "module") -> Module:
        self.module.name = name
        self.module.metadata["source_lines"] = unit.source_lines
        bodies: Dict[str, ast.FunctionDef] = {}
        for decl in unit.decls:
            if isinstance(decl, ast.StructDef):
                self._declare_struct(decl)
            elif isinstance(decl, ast.TypedefDecl):
                ctype = self._resolve(decl.type, decl.line)
                self.typedefs[decl.name] = ctype
                # `typedef struct { ... } Name;` — adopt the typedef name
                # for the anonymous struct so diagnostics and layout dumps
                # read like the source.
                if (ctype.is_struct
                        and ctype.ir.name.startswith("__anon_struct")
                        and decl.name not in self.module.structs):
                    old = ctype.ir.name
                    ctype.ir.name = decl.name
                    self.module.structs[decl.name] = \
                        self.module.structs.pop(old)
                    self.structs[decl.name] = self.structs.pop(old)
            elif isinstance(decl, ast.EnumDef):
                pass  # parser folded enum constants into literals
            elif isinstance(decl, ast.GlobalDecl):
                self._declare_global(decl)
            elif isinstance(decl, ast.FunctionDef):
                self._declare_function(decl)
                if decl.body is not None:
                    if decl.name in bodies:
                        raise CodegenError(f"redefinition of {decl.name}",
                                           decl.line)
                    bodies[decl.name] = decl
            else:
                raise CodegenError(f"unhandled top-level {decl!r}")
        for decl in bodies.values():
            try:
                self._compile_function(decl)
            except RecursionError:
                raise CodegenError(f"{decl.name}: nesting too deep",
                                   decl.line) from None
        return self.module

    def _declare_struct(self, decl: ast.StructDef) -> None:
        if decl.name in self.structs:
            raise CodegenError(f"duplicate struct {decl.name}", decl.line)
        ir_struct = irt.StructType(decl.name)
        self.module.add_struct(ir_struct)
        # Allow self-referencing structs (linked lists) by registering an
        # opaque CStruct before resolving field types.
        cstruct = ct.CStruct(ir_struct, [])
        self.structs[decl.name] = cstruct
        fields = []
        for field in decl.fields:
            ftype = self._resolve(field.type, field.line)
            if ftype.is_void:
                raise CodegenError("void struct field", field.line)
            fields.append((field.name, ftype))
        cstruct.fields = fields
        ir_struct.set_body([(n, t.ir) for n, t in fields])

    def _declare_global(self, decl: ast.GlobalDecl) -> None:
        ctype = self._resolve(decl.type, decl.line)
        if ctype.is_void:
            raise CodegenError("void variable", decl.line)
        if ctype.is_function:
            # 'extern int foo(int);' written as a global: treat as function
            raise CodegenError(
                f"function declarator for global {decl.name}", decl.line)
        existing = self.global_scope.lookup(decl.name)
        if existing is not None:
            if decl.is_extern:
                return
            kind, value, old_ctype = existing
            if kind == "global" and old_ctype == ctype:
                if decl.init is not None:
                    value.initializer = self._make_initializer(
                        decl.init, ctype, decl.line)
                return
            raise CodegenError(f"redefinition of {decl.name}", decl.line)
        init = (self._make_initializer(decl.init, ctype, decl.line)
                if decl.init is not None else ZeroInit())
        gv = GlobalVariable(decl.name, ctype.ir, init)
        self.module.add_global(gv)
        self.global_scope.define(decl.name, "global", gv, ctype)

    def _declare_function(self, decl: ast.FunctionDef) -> None:
        if decl.name in self.functions:
            info = self.functions[decl.name]
            if decl.body is not None:
                info.ir_fn.source_lines = max(
                    1, decl.end_line - decl.line + 1)
            return
        ret = self._resolve(decl.ret_type, decl.line)
        param_ctypes = [self._resolve(p.type, p.line) for p in decl.params]
        # Decay array params to pointers; struct params pass by pointer.
        lowered: List[ct.CType] = []
        for ptype in param_ctypes:
            if ptype.is_array:
                lowered.append(ct.CPointer(ptype.element))
            elif ptype.is_struct:
                lowered.append(ct.CPointer(ptype))
            else:
                lowered.append(ptype)
        sret = ret.is_struct
        ir_params = [p.ir for p in lowered]
        arg_names = [p.name or f"arg{i}" for i, p in enumerate(decl.params)]
        if sret:
            ir_params = [irt.PointerType(ret.ir)] + ir_params
            arg_names = ["sret"] + arg_names
        ftype = irt.FunctionType(irt.VOID if sret else ret.ir, ir_params,
                                 decl.variadic)
        ir_fn = Function(decl.name, ftype, arg_names)
        if decl.body is not None:
            ir_fn.source_lines = max(1, decl.end_line - decl.line + 1)
        self.module.add_function(ir_fn)
        cfunc = ct.CFunc(ret, lowered, decl.variadic)
        info = _FuncInfo(cfunc, ir_fn, sret, lowered)
        self.functions[decl.name] = info
        self.global_scope.define(decl.name, "function", info, cfunc)

    def _compile_function(self, decl: ast.FunctionDef) -> None:
        info = self.functions[decl.name]
        fn = info.ir_fn
        self.current = info
        alloca_block = fn.add_block("entry")
        body_block = fn.add_block("body")
        self.alloca_builder = IRBuilder(alloca_block)
        self.builder = IRBuilder(body_block)
        self.scope = _Scope(self.global_scope)
        self._break_stack = []
        self._continue_stack = []
        self._block_counter = 0

        args = list(fn.args)
        if info.sret:
            self.sret_ptr = args[0]
            args = args[1:]
        else:
            self.sret_ptr = None
        for arg, param, ctype in zip(args, decl.params, info.param_ctypes):
            if ctype.is_pointer and ctype.pointee.is_struct and \
                    self._resolve(param.type, param.line).is_struct:
                # struct passed by value: the caller made a private copy,
                # bind the parameter name directly to that storage.
                self.scope.define(param.name, "local", arg, ctype.pointee)
                continue
            slot = self.alloca_builder.alloca(ctype.ir, f"{param.name}.addr")
            self.builder.store(arg, slot)
            self.scope.define(param.name, "local", slot, ctype)

        self._gen_block(decl.body)

        # Fall-off-the-end handling.
        if self.builder.block.terminator is None:
            ret = info.ctype.ret
            if info.sret or ret.is_void:
                self.builder.ret()
            else:
                self.builder.ret(Constant(ret.ir, 0))
        # Finish the alloca header block.
        self.alloca_builder.br(body_block)
        self.current = None

    # ------------------------------------------------------------------
    # Type resolution
    # ------------------------------------------------------------------
    def _resolve(self, spec: ast.TypeSpec, line: int) -> ct.CType:
        base = self._resolve_base(spec.base, line)
        if spec.func_params is not None:
            ret = base
            for _ in range(spec.pointers):
                ret = ct.CPointer(ret)
            params = []
            for p in spec.func_params:
                ptype = self._resolve(p.type, p.line)
                if ptype.is_array:
                    ptype = ct.CPointer(ptype.element)
                elif ptype.is_struct:
                    ptype = ct.CPointer(ptype)
                params.append(ptype)
            fn = ct.CFunc(ret, params, spec.func_variadic)
            result: ct.CType = fn
            for _ in range(max(spec.func_pointers, 1)):
                result = ct.CPointer(result)
            for dim in reversed(spec.array_dims):
                result = ct.CArray(result, dim or 0)
            return result
        result = base
        for _ in range(spec.pointers):
            result = ct.CPointer(result)
        for dim in reversed(spec.array_dims):
            if dim is None:
                result = ct.CPointer(result)
            else:
                result = ct.CArray(result, dim)
        return result

    def _resolve_base(self, base: str, line: int) -> ct.CType:
        if base.startswith("struct:"):
            name = base.split(":", 1)[1]
            struct = self.structs.get(name)
            if struct is None:
                raise CodegenError(f"unknown struct {name}", line)
            return struct
        if base.startswith("typedef:"):
            name = base.split(":", 1)[1]
            ctype = self.typedefs.get(name)
            if ctype is None:
                raise CodegenError(f"unknown typedef {name}", line)
            return ctype
        ctype = ct.BASE_TYPES.get(base)
        if ctype is None:
            raise CodegenError(f"unknown type {base}", line)
        return ctype

    # ------------------------------------------------------------------
    # Global initializers
    # ------------------------------------------------------------------
    def _make_initializer(self, expr: ast.Expr, ctype: ct.CType,
                          line: int) -> Initializer:
        if isinstance(expr, ast.InitList):
            if ctype.is_array:
                elements = [self._make_initializer(e, ctype.element, line)
                            for e in expr.elements]
                return AggregateInit(elements)
            if ctype.is_struct:
                elements = []
                for e, (_, ftype) in zip(expr.elements, ctype.fields):
                    elements.append(self._make_initializer(e, ftype, line))
                return AggregateInit(elements)
            if expr.elements:
                return self._make_initializer(expr.elements[0], ctype, line)
            return ZeroInit()
        if isinstance(expr, ast.StrLit):
            data = expr.value.encode("latin-1") + b"\x00"
            if ctype.is_array:
                return BytesInit(data)
            if ctype.is_pointer:
                gv = self._string_global(expr.value)
                return GlobalRefInit(gv.name)
            raise CodegenError("string initializer for non-array", line)
        if isinstance(expr, ast.Ident):
            if expr.name in self.functions:
                return FunctionRefInit(expr.name)
            binding = self.global_scope.lookup(expr.name)
            if binding is not None and binding[0] == "global" and \
                    ctype.is_pointer:
                return GlobalRefInit(binding[1].name)
            raise CodegenError(
                f"non-constant initializer {expr.name}", line)
        if isinstance(expr, ast.Unary) and expr.op == "&" and \
                isinstance(expr.operand, ast.Ident):
            binding = self.global_scope.lookup(expr.operand.name)
            if binding is not None and binding[0] == "global":
                return GlobalRefInit(binding[1].name)
            if expr.operand.name in self.functions:
                return FunctionRefInit(expr.operand.name)
            raise CodegenError("non-constant address initializer", line)
        value = self._const_value(expr, line)
        if ctype.is_integer or ctype.is_pointer:
            return ScalarInit(int(value))
        if ctype.is_float:
            return ScalarInit(float(value))
        raise CodegenError(f"scalar initializer for {ctype}", line)

    def _const_value(self, expr: ast.Expr, line: int):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.CharLit)):
            return expr.value
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._const_value(expr.operand, line)
        if isinstance(expr, ast.Unary) and expr.op == "+":
            return self._const_value(expr.operand, line)
        if isinstance(expr, ast.Binary):
            lhs = self._const_value(expr.lhs, line)
            rhs = self._const_value(expr.rhs, line)
            if expr.op == "/" and rhs == 0:
                raise CodegenError("division by zero in constant expression",
                                   line)
            ops = {"+": operator.add, "-": operator.sub,
                   "*": operator.mul,
                   "/": (operator.truediv
                         if isinstance(lhs, float) or isinstance(rhs, float)
                         else operator.floordiv)}
            if expr.op in ops:
                return ops[expr.op](lhs, rhs)
        if isinstance(expr, ast.SizeofExpr):
            return self._sizeof_value(expr, line)
        if isinstance(expr, ast.CastExpr):
            inner = self._const_value(expr.operand, line)
            target = self._resolve(expr.type, line)
            if target.is_integer:
                return int(inner)
            if target.is_float:
                return float(inner)
            return inner
        raise CodegenError("expected constant expression", line)

    def _string_global(self, text: str) -> GlobalVariable:
        gv = self._strings.get(text)
        if gv is not None:
            return gv
        data = text.encode("latin-1") + b"\x00"  # a byte per character
        name = f".str.{len(self._strings)}"
        gv = GlobalVariable(name, irt.ArrayType(irt.I8, len(data)),
                            BytesInit(data), constant=True)
        self.module.add_global(gv)
        self._strings[text] = gv
        return gv

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _new_block(self, hint: str):
        self._block_counter += 1
        return self.current.ir_fn.add_block(f"{hint}{self._block_counter}")

    def _ensure_open_block(self) -> None:
        if self.builder.block.terminator is not None:
            dead = self._new_block("dead")
            self.builder.position_at_end(dead)

    def _gen_statement(self, stmt: ast.Stmt) -> None:
        self._ensure_open_block()
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._rvalue(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            self._gen_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._break_stack:
                raise CodegenError("break outside loop/switch", stmt.line)
            self.builder.br(self._break_stack[-1])
        elif isinstance(stmt, ast.Continue):
            if not self._continue_stack:
                raise CodegenError("continue outside loop", stmt.line)
            self.builder.br(self._continue_stack[-1])
        elif isinstance(stmt, ast.SwitchStmt):
            self._gen_switch(stmt)
        else:
            raise CodegenError(f"unhandled statement {stmt!r}", stmt.line)

    def _gen_block(self, block: ast.Block) -> None:
        self.scope = _Scope(self.scope)
        for stmt in block.statements:
            self._gen_statement(stmt)
        self.scope = self.scope.parent

    def _gen_decl(self, stmt: ast.DeclStmt) -> None:
        ctype = self._resolve(stmt.type, stmt.line)
        if ctype.is_void:
            raise CodegenError("void variable", stmt.line)
        slot = self.alloca_builder.alloca(ctype.ir, stmt.name)
        self.scope.define(stmt.name, "local", slot, ctype)
        if stmt.init is None:
            return
        if isinstance(stmt.init, ast.InitList):
            self._gen_local_init_list(slot, ctype, stmt.init, stmt.line)
            return
        if isinstance(stmt.init, ast.StrLit) and ctype.is_array:
            data_gv = self._string_global(stmt.init.value)
            self._emit_memcpy(slot, data_gv,
                              min(self._type_size(ctype),
                                  len(stmt.init.value) + 1))
            return
        value, vtype = self._rvalue(stmt.init)
        if ctype.is_struct:
            if not (vtype.is_struct and vtype.ir.name == ctype.ir.name):
                raise CodegenError("struct init type mismatch", stmt.line)
            self._emit_memcpy(slot, value, self._type_size(ctype))
            return
        converted = self._convert(value, vtype, ctype, stmt.line)
        self.builder.store(converted, slot)

    def _gen_local_init_list(self, slot: Value, ctype: ct.CType,
                             init: ast.InitList, line: int) -> None:
        if ctype.is_array:
            for i, element in enumerate(init.elements):
                addr = self.builder.gep(
                    slot, [self.builder.i32(0), self.builder.i32(i)])
                if isinstance(element, ast.InitList):
                    self._gen_local_init_list(addr, ctype.element, element,
                                              line)
                else:
                    value, vtype = self._rvalue(element)
                    self.builder.store(
                        self._convert(value, vtype, ctype.element, line),
                        addr)
            return
        if ctype.is_struct:
            for i, element in enumerate(init.elements):
                _, ftype = ctype.fields[i][0], ctype.fields[i][1]
                addr = self.builder.struct_gep(slot, i)
                if isinstance(element, ast.InitList):
                    self._gen_local_init_list(addr, ftype, element, line)
                else:
                    value, vtype = self._rvalue(element)
                    self.builder.store(
                        self._convert(value, vtype, ftype, line), addr)
            return
        raise CodegenError("initializer list for scalar", line)

    def _gen_if(self, stmt: ast.If) -> None:
        cond = self._condition(stmt.cond)
        then_block = self._new_block("if.then")
        merge_block = self._new_block("if.end")
        else_block = (self._new_block("if.else")
                      if stmt.otherwise is not None else merge_block)
        self.builder.condbr(cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        self._gen_statement(stmt.then)
        if self.builder.block.terminator is None:
            self.builder.br(merge_block)
        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self._gen_statement(stmt.otherwise)
            if self.builder.block.terminator is None:
                self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)

    def _gen_while(self, stmt: ast.While) -> None:
        cond_block = self._new_block("while.cond")
        body_block = self._new_block("while.body")
        end_block = self._new_block("while.end")
        self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        cond = self._condition(stmt.cond)
        self.builder.condbr(cond, body_block, end_block)
        self.builder.position_at_end(body_block)
        self._break_stack.append(end_block)
        self._continue_stack.append(cond_block)
        self._gen_statement(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(cond_block)
        self.builder.position_at_end(end_block)

    def _gen_do_while(self, stmt: ast.DoWhile) -> None:
        body_block = self._new_block("do.body")
        cond_block = self._new_block("do.cond")
        end_block = self._new_block("do.end")
        self.builder.br(body_block)
        self.builder.position_at_end(body_block)
        self._break_stack.append(end_block)
        self._continue_stack.append(cond_block)
        self._gen_statement(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        cond = self._condition(stmt.cond)
        self.builder.condbr(cond, body_block, end_block)
        self.builder.position_at_end(end_block)

    def _gen_for(self, stmt: ast.For) -> None:
        self.scope = _Scope(self.scope)
        if stmt.init is not None:
            self._gen_statement(stmt.init)
        cond_block = self._new_block("for.cond")
        body_block = self._new_block("for.body")
        step_block = self._new_block("for.step")
        end_block = self._new_block("for.end")
        self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        if stmt.cond is not None:
            cond = self._condition(stmt.cond)
            self.builder.condbr(cond, body_block, end_block)
        else:
            self.builder.br(body_block)
        self.builder.position_at_end(body_block)
        self._break_stack.append(end_block)
        self._continue_stack.append(step_block)
        self._gen_statement(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(step_block)
        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._rvalue(stmt.step)
        self.builder.br(cond_block)
        self.builder.position_at_end(end_block)
        self.scope = self.scope.parent

    def _gen_return(self, stmt: ast.Return) -> None:
        info = self.current
        ret = info.ctype.ret
        if ret.is_void:
            self.builder.ret()
            return
        if stmt.value is None:
            raise CodegenError("return without value", stmt.line)
        if info.sret:
            value, vtype = self._rvalue(stmt.value)
            if not vtype.is_struct:
                raise CodegenError("expected struct return value", stmt.line)
            self._emit_memcpy(self.sret_ptr, value, self._type_size(ret))
            self.builder.ret()
            return
        value, vtype = self._rvalue(stmt.value)
        self.builder.ret(self._convert(value, vtype, ret, stmt.line))

    def _gen_switch(self, stmt: ast.SwitchStmt) -> None:
        value, vtype = self._rvalue(stmt.value)
        if not vtype.is_integer:
            raise CodegenError("switch on non-integer", stmt.line)
        end_block = self._new_block("switch.end")
        case_blocks = [self._new_block(f"case") for _ in stmt.cases]
        default_block = end_block
        switch = self.builder.switch(value, default_block)
        labels: Set[Optional[int]] = set()
        for (const, _, line), block in zip(stmt.cases, case_blocks):
            if const is not None:
                const &= vtype.ir.max_unsigned
            if const in labels:
                raise CodegenError(
                    "multiple default labels" if const is None
                    else "duplicate case value", line)
            labels.add(const)
            if const is None:
                switch.default = block
            else:
                switch.add_case(const, block)
        self._break_stack.append(end_block)
        for i, ((_, body, _), block) in enumerate(
                zip(stmt.cases, case_blocks)):
            self.builder.position_at_end(block)
            for inner in body:
                self._gen_statement(inner)
            if self.builder.block.terminator is None:
                # fallthrough to the next case, or exit
                target = (case_blocks[i + 1] if i + 1 < len(case_blocks)
                          else end_block)
                self.builder.br(target)
        self._break_stack.pop()
        self.builder.position_at_end(end_block)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _condition(self, expr: ast.Expr) -> Value:
        value, ctype = self._rvalue(expr)
        return self._truthiness(value, ctype, expr.line)

    def _truthiness(self, value: Value, ctype: ct.CType, line: int) -> Value:
        if ctype == ct.BOOL:
            return value
        if ctype.is_integer:
            return self.builder.cmp("ne", value, Constant(ctype.ir, 0))
        if ctype.is_float:
            return self.builder.cmp("fne", value, Constant(ctype.ir, 0.0))
        if ctype.is_pointer:
            return self.builder.cmp("ne", value, Constant(ctype.ir, 0))
        raise CodegenError(f"cannot test {ctype} for truth", line)

    def _lvalue(self, expr: ast.Expr) -> Tuple[Value, ct.CType]:
        if isinstance(expr, ast.Ident):
            binding = self.scope.lookup(expr.name)
            if binding is None:
                raise CodegenError(f"undeclared identifier {expr.name}",
                                   expr.line)
            kind, value, ctype = binding
            if kind == "local":
                return value, ctype
            if kind == "global":
                return value, ctype
            raise CodegenError(f"{expr.name} is not an lvalue", expr.line)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value, ctype = self._rvalue(expr.operand)
            if not ctype.is_pointer:
                raise CodegenError("dereference of non-pointer", expr.line)
            return value, ctype.pointee
        if isinstance(expr, ast.Index):
            base, btype = self._rvalue_or_array(expr.base)
            index, itype = self._rvalue(expr.index)
            if not itype.is_integer:
                raise CodegenError("non-integer array index", expr.line)
            index = self._convert(index, itype, ct.LONG, expr.line)
            if btype.is_pointer:
                addr = self.builder.index(base, index)
                return addr, btype.pointee
            raise CodegenError("indexing non-pointer", expr.line)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base, btype = self._rvalue(expr.base)
                if not (btype.is_pointer and btype.pointee.is_struct):
                    raise CodegenError("-> on non-struct-pointer", expr.line)
                struct = btype.pointee
            else:
                base, struct = self._lvalue(expr.base)
                if not struct.is_struct:
                    raise CodegenError(". on non-struct", expr.line)
            try:
                index, ftype = struct.field(expr.name)
            except KeyError as exc:
                raise CodegenError(exc.args[0], expr.line) from None
            addr = self.builder.struct_gep(base, index)
            return addr, ftype
        raise CodegenError("expression is not an lvalue", expr.line)

    def _rvalue_or_array(self, expr: ast.Expr) -> Tuple[Value, ct.CType]:
        """Rvalue with array-to-pointer decay."""
        ctype = self._type_of_lvalue_or_none(expr)
        if ctype is not None and ctype.is_array:
            addr, atype = self._lvalue(expr)
            decayed = self.builder.gep(
                addr, [self.builder.i32(0), self.builder.i32(0)])
            return decayed, ct.CPointer(atype.element)
        return self._rvalue(expr)

    def _type_of_lvalue_or_none(self, expr: ast.Expr) -> Optional[ct.CType]:
        try:
            if isinstance(expr, ast.Ident):
                binding = self.scope.lookup(expr.name)
                if binding and binding[0] in ("local", "global"):
                    return binding[2]
                return None
            if isinstance(expr, ast.Member):
                base = self._type_of_lvalue_or_none(expr.base)
                if expr.arrow:
                    base = self._type_of_lvalue_or_none(expr.base)
                    if base is not None and base.is_pointer:
                        base = base.pointee
                if base is not None and base.is_struct:
                    return base.field(expr.name)[1]
                return None
            if isinstance(expr, ast.Index):
                base = self._type_of_lvalue_or_none(expr.base)
                if base is not None and base.is_array:
                    return base.element
                base = self._type_of_lvalue_or_none(expr.base)
                if base is not None and base.is_pointer:
                    return base.pointee
                return None
        except (KeyError, CodegenError):
            return None
        return None

    def _rvalue(self, expr: ast.Expr) -> Tuple[Value, ct.CType]:
        if isinstance(expr, ast.IntLit):
            if -(1 << 31) <= expr.value < (1 << 31):
                return Constant(irt.I32, expr.value), ct.INT
            return Constant(irt.I64, expr.value), ct.LONG
        if isinstance(expr, ast.FloatLit):
            return Constant(irt.F64, expr.value), ct.DOUBLE
        if isinstance(expr, ast.CharLit):
            return Constant(irt.I32, expr.value), ct.INT
        if isinstance(expr, ast.StrLit):
            gv = self._string_global(expr.value)
            addr = self.builder.gep(
                gv, [self.builder.i32(0), self.builder.i32(0)])
            return addr, ct.CPointer(ct.CHAR)
        if isinstance(expr, ast.Ident):
            return self._rvalue_ident(expr)
        if isinstance(expr, ast.Unary):
            return self._rvalue_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._rvalue_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._rvalue_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._rvalue_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._rvalue_call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            addr, ctype = self._lvalue(expr)
            return self._load_lvalue(addr, ctype)
        if isinstance(expr, ast.CastExpr):
            target = self._resolve(expr.type, expr.line)
            value, vtype = self._rvalue_or_array(expr.operand)
            if target.is_void:
                return Constant(irt.I32, 0), ct.INT
            return self._convert(value, vtype, target, expr.line,
                                 explicit=True), target
        if isinstance(expr, ast.SizeofExpr):
            return (Constant(irt.I64, self._sizeof_value(expr, expr.line)),
                    ct.ULONG)
        raise CodegenError(f"unhandled expression {expr!r}", expr.line)

    def _sizeof_value(self, expr: ast.SizeofExpr, line: int) -> int:
        if expr.type is not None:
            ctype = self._resolve(expr.type, line)
        else:
            ctype = self._type_of_lvalue_or_none(expr.operand)
            if ctype is None:
                raise CodegenError(
                    "sizeof of complex expression unsupported", line)
        if ctype.is_void:
            raise CodegenError("sizeof of void", line)
        return self._type_size(ctype)

    def _type_size(self, ctype: ct.CType) -> int:
        return self.layout.size_of(ctype.ir)

    def _load_lvalue(self, addr: Value, ctype: ct.CType
                     ) -> Tuple[Value, ct.CType]:
        if ctype.is_struct:
            # struct rvalue = its storage address (copied where needed)
            return addr, ctype
        if ctype.is_array:
            decayed = self.builder.gep(
                addr, [self.builder.i32(0), self.builder.i32(0)])
            return decayed, ct.CPointer(ctype.element)
        return self.builder.load(addr), ctype

    def _rvalue_ident(self, expr: ast.Ident) -> Tuple[Value, ct.CType]:
        binding = self.scope.lookup(expr.name)
        if binding is None:
            info = self._implicit_builtin(expr.name)
            if info is not None:
                return info.ir_fn, ct.CPointer(info.ctype)
            raise CodegenError(f"undeclared identifier {expr.name}",
                               expr.line)
        kind, value, ctype = binding
        if kind == "function":
            return value.ir_fn, ct.CPointer(ctype)
        return self._load_lvalue(value, ctype)

    def _implicit_builtin(self, name: str) -> Optional[_FuncInfo]:
        if name in self.functions:
            return self.functions[name]
        sig = BUILTIN_SIGNATURES.get(name)
        if sig is None:
            return None
        ir_fn = self.module.declare_function(name, sig.ir)
        info = _FuncInfo(sig, ir_fn, False, sig.params)
        self.functions[name] = info
        self.global_scope.define(name, "function", info, sig)
        return info

    def _rvalue_unary(self, expr: ast.Unary) -> Tuple[Value, ct.CType]:
        op = expr.op
        if op == "&":
            if isinstance(expr.operand, ast.Ident):
                binding = self.scope.lookup(expr.operand.name)
                if binding is None and expr.operand.name in BUILTIN_SIGNATURES:
                    info = self._implicit_builtin(expr.operand.name)
                    return info.ir_fn, ct.CPointer(info.ctype)
                if binding is not None and binding[0] == "function":
                    return binding[1].ir_fn, ct.CPointer(binding[2])
            addr, ctype = self._lvalue(expr.operand)
            return addr, ct.CPointer(ctype)
        if op == "*":
            value, ctype = self._rvalue_or_array(expr.operand)
            if not ctype.is_pointer:
                raise CodegenError("dereference of non-pointer", expr.line)
            if ctype.pointee.is_function:
                return value, ctype  # (*f)() == f()
            return self._load_lvalue(value, ctype.pointee)
        if op in ("++", "--"):
            return self._rvalue_incdec(expr)
        value, ctype = self._rvalue(expr.operand)
        if op == "-":
            if ctype.is_float:
                return (self.builder.fsub(Constant(ctype.ir, 0.0), value),
                        ctype)
            promoted = ct.promote(self._debool(ctype))
            if not promoted.is_integer:
                raise CodegenError(f"operator - on {ctype}", expr.line)
            value = self._convert(value, ctype, promoted, expr.line)
            return self.builder.sub(Constant(promoted.ir, 0), value), promoted
        if op == "+":
            return value, ctype
        if op == "!":
            truth = self._truthiness(value, ctype, expr.line)
            flipped = self.builder.cmp("eq", truth, Constant(irt.I1, 0))
            return flipped, ct.BOOL
        if op == "~":
            promoted = ct.promote(self._debool(ctype))
            if not promoted.is_integer:
                raise CodegenError(f"operator ~ on {ctype}", expr.line)
            value = self._convert(value, ctype, promoted, expr.line)
            return (self.builder.binop(
                "xor", value, Constant(promoted.ir, promoted.ir.max_unsigned)),
                promoted)
        raise CodegenError(f"unhandled unary {op}", expr.line)

    def _rvalue_incdec(self, expr: ast.Unary) -> Tuple[Value, ct.CType]:
        addr, ctype = self._lvalue(expr.operand)
        old = self.builder.load(addr)
        if ctype.is_pointer:
            delta = self.builder.i32(1 if expr.op == "++" else -1)
            new = self.builder.index(old, delta)
        elif ctype.is_float:
            one = Constant(ctype.ir, 1.0)
            new = (self.builder.fadd(old, one) if expr.op == "++"
                   else self.builder.fsub(old, one))
        else:
            one = Constant(ctype.ir, 1)
            new = (self.builder.add(old, one) if expr.op == "++"
                   else self.builder.sub(old, one))
        self.builder.store(new, addr)
        return (old if expr.postfix else new), ctype

    def _rvalue_binary(self, expr: ast.Binary) -> Tuple[Value, ct.CType]:
        op = expr.op
        if op == ",":
            self._rvalue(expr.lhs)
            return self._rvalue(expr.rhs)
        if op in ("&&", "||"):
            return self._rvalue_logical(expr)
        lhs, ltype = self._rvalue_or_array(expr.lhs)
        rhs, rtype = self._rvalue_or_array(expr.rhs)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._rvalue_comparison(op, lhs, ltype, rhs, rtype,
                                           expr.line)
        # pointer arithmetic
        if ltype.is_pointer or rtype.is_pointer:
            return self._rvalue_pointer_arith(op, lhs, ltype, rhs, rtype,
                                              expr.line)
        common = self._arith_common(op, ltype, rtype, expr.line)
        lhs = self._convert(lhs, ltype, common, expr.line)
        rhs = self._convert(rhs, rtype, common, expr.line)
        ir_op = self._select_binop(op, common, expr.line)
        result = self.builder.binop(ir_op, lhs, rhs)
        return result, common

    def _debool(self, ctype: ct.CType) -> ct.CType:
        return ct.INT if ctype == ct.BOOL else ctype

    def _arith_common(self, op: str, ltype: ct.CType, rtype: ct.CType,
                      line: int) -> ct.CType:
        """The type both operands of ``op`` convert to."""
        if not (ltype.is_arith and rtype.is_arith):
            raise CodegenError(f"operator {op} on {ltype} and {rtype}",
                               line)
        return ct.usual_arithmetic_conversion(self._debool(ltype),
                                              self._debool(rtype))

    def _select_binop(self, op: str, ctype: ct.CType, line: int) -> str:
        if ctype.is_float:
            table = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                     "%": "frem"}
        else:
            signed = ctype.signed
            table = {
                "+": "add", "-": "sub", "*": "mul",
                "/": "sdiv" if signed else "udiv",
                "%": "srem" if signed else "urem",
                "&": "and", "|": "or", "^": "xor",
                "<<": "shl", ">>": "ashr" if signed else "lshr",
            }
        ir_op = table.get(op)
        if ir_op is None:
            raise CodegenError(f"operator {op} on {ctype}", line)
        return ir_op

    def _rvalue_comparison(self, op: str, lhs: Value, ltype: ct.CType,
                           rhs: Value, rtype: ct.CType,
                           line: int) -> Tuple[Value, ct.CType]:
        if ltype.is_pointer or rtype.is_pointer:
            # normalize: allow comparing pointer against integer 0 (NULL)
            if ltype.is_pointer and rtype.is_integer:
                rhs = self._convert(rhs, rtype, ltype, line, explicit=True)
            elif rtype.is_pointer and ltype.is_integer:
                lhs = self._convert(lhs, ltype, rtype, line, explicit=True)
            elif not (ltype.is_pointer and rtype.is_pointer):
                raise CodegenError(f"operator {op} on {ltype} and {rtype}",
                                   line)
            elif ltype != rtype:
                rhs = self.builder.bitcast(rhs, ltype.ir)
            pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                    ">": "ugt", ">=": "uge"}[op]
            return self.builder.cmp(pred, lhs, rhs), ct.BOOL
        common = self._arith_common(op, ltype, rtype, line)
        lhs = self._convert(lhs, ltype, common, line)
        rhs = self._convert(rhs, rtype, common, line)
        if common.is_float:
            pred = {"==": "feq", "!=": "fne", "<": "flt", "<=": "fle",
                    ">": "fgt", ">=": "fge"}[op]
        elif common.signed:
            pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                    ">": "sgt", ">=": "sge"}[op]
        else:
            pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                    ">": "ugt", ">=": "uge"}[op]
        return self.builder.cmp(pred, lhs, rhs), ct.BOOL

    def _rvalue_pointer_arith(self, op, lhs, ltype, rhs, rtype, line):
        if op == "+":
            if ltype.is_pointer and rtype.is_integer:
                index = self._convert(rhs, rtype, ct.LONG, line)
                return self.builder.index(lhs, index), ltype
            if rtype.is_pointer and ltype.is_integer:
                index = self._convert(lhs, ltype, ct.LONG, line)
                return self.builder.index(rhs, index), rtype
        if op == "-":
            if ltype.is_pointer and rtype.is_integer:
                index = self._convert(rhs, rtype, ct.LONG, line)
                neg = self.builder.sub(Constant(irt.I64, 0), index)
                return self.builder.index(lhs, neg), ltype
            if ltype.is_pointer and rtype.is_pointer:
                li = self.builder.cast("ptrtoint", lhs, irt.I64)
                ri = self.builder.cast("ptrtoint", rhs, irt.I64)
                diff = self.builder.sub(li, ri)
                elem = max(1, self._type_size(ltype.pointee))
                result = self.builder.binop(
                    "sdiv", diff, Constant(irt.I64, elem))
                return result, ct.LONG
        raise CodegenError(f"invalid pointer arithmetic {op}", line)

    def _rvalue_logical(self, expr: ast.Binary) -> Tuple[Value, ct.CType]:
        result = self.alloca_builder.alloca(irt.I32, "logtmp")
        rhs_block = self._new_block("log.rhs")
        end_block = self._new_block("log.end")
        lhs_cond = self._condition(expr.lhs)
        lhs_int = self.builder.zext(lhs_cond, irt.I32)
        self.builder.store(lhs_int, result)
        if expr.op == "&&":
            self.builder.condbr(lhs_cond, rhs_block, end_block)
        else:
            self.builder.condbr(lhs_cond, end_block, rhs_block)
        self.builder.position_at_end(rhs_block)
        rhs_cond = self._condition(expr.rhs)
        rhs_int = self.builder.zext(rhs_cond, irt.I32)
        self.builder.store(rhs_int, result)
        self.builder.br(end_block)
        self.builder.position_at_end(end_block)
        return self.builder.load(result), ct.INT

    def _rvalue_assign(self, expr: ast.Assign) -> Tuple[Value, ct.CType]:
        addr, ctype = self._lvalue(expr.target)
        if expr.op == "=":
            if ctype.is_struct:
                value, vtype = self._rvalue(expr.value)
                if not (vtype.is_struct and vtype.ir.name == ctype.ir.name):
                    raise CodegenError("struct assignment type mismatch",
                                       expr.line)
                self._emit_memcpy(addr, value, self._type_size(ctype))
                return addr, ctype
            value, vtype = self._rvalue_or_array(expr.value)
            converted = self._convert(value, vtype, ctype, expr.line)
            self.builder.store(converted, addr)
            return converted, ctype
        # compound assignment
        op = expr.op[:-1]
        old = self.builder.load(addr)
        rhs, rtype = self._rvalue_or_array(expr.value)
        if ctype.is_pointer:
            if op not in ("+", "-"):
                raise CodegenError(f"pointer {expr.op}", expr.line)
            index = self._convert(rhs, rtype, ct.LONG, expr.line)
            if op == "-":
                index = self.builder.sub(Constant(irt.I64, 0), index)
            new = self.builder.index(old, index)
        else:
            common = self._arith_common(expr.op, ctype, rtype, expr.line)
            lhs_c = self._convert(old, ctype, common, expr.line)
            rhs_c = self._convert(rhs, rtype, common, expr.line)
            ir_op = self._select_binop(op, common, expr.line)
            result = self.builder.binop(ir_op, lhs_c, rhs_c)
            new = self._convert(result, common, ctype, expr.line,
                                explicit=True)
        self.builder.store(new, addr)
        return new, ctype

    def _rvalue_conditional(self, expr: ast.Conditional
                            ) -> Tuple[Value, ct.CType]:
        # Determine the common result type by speculatively type-checking
        # is complex; use: evaluate both arms in separate blocks into a
        # memory slot of the common type computed from a dry pass.
        cond = self._condition(expr.cond)
        true_block = self._new_block("cond.true")
        false_block = self._new_block("cond.false")
        end_block = self._new_block("cond.end")
        self.builder.condbr(cond, true_block, false_block)

        self.builder.position_at_end(true_block)
        tval, ttype = self._rvalue_or_array(expr.if_true)
        true_exit = self.builder.block

        self.builder.position_at_end(false_block)
        fval, ftype = self._rvalue_or_array(expr.if_false)
        false_exit = self.builder.block

        if ttype.is_pointer or ftype.is_pointer:
            common = ttype if ttype.is_pointer else ftype
        elif ttype.is_arith and ftype.is_arith:
            common = ct.usual_arithmetic_conversion(
                self._debool(ttype), self._debool(ftype))
        elif ttype == ftype:
            common = ttype
        else:
            raise CodegenError("incompatible conditional arms", expr.line)

        slot = self.alloca_builder.alloca(common.ir, "condtmp")
        self.builder.position_at_end(true_exit)
        self.builder.store(self._convert(tval, ttype, common, expr.line),
                           slot)
        self.builder.br(end_block)
        self.builder.position_at_end(false_exit)
        self.builder.store(self._convert(fval, ftype, common, expr.line),
                           slot)
        self.builder.br(end_block)
        self.builder.position_at_end(end_block)
        return self.builder.load(slot), common

    def _rvalue_call(self, expr: ast.CallExpr) -> Tuple[Value, ct.CType]:
        # Resolve the callee: direct function, or function-pointer value.
        callee_value: Value
        cfunc: ct.CFunc
        direct = None
        target = expr.callee
        while isinstance(target, ast.Unary) and target.op == "*":
            target = target.operand  # (*fp)(...) -> fp(...)
        if isinstance(target, ast.Ident):
            binding = self.scope.lookup(target.name)
            if binding is None:
                info = self._implicit_builtin(target.name)
                if info is None:
                    raise CodegenError(
                        f"call to undeclared function {target.name}",
                        expr.line)
                direct, cfunc = info.ir_fn, info.ctype
            elif binding[0] == "function":
                direct, cfunc = binding[1].ir_fn, binding[2]
            else:
                value, ctype = self._load_lvalue(binding[1], binding[2])
                if ctype.is_pointer and ctype.pointee.is_function:
                    callee_value, cfunc = value, ctype.pointee
                else:
                    raise CodegenError(
                        f"called object {target.name} is not a function",
                        expr.line)
        else:
            value, ctype = self._rvalue(target)
            if ctype.is_pointer and ctype.pointee.is_function:
                callee_value, cfunc = value, ctype.pointee
            elif ctype.is_function:
                callee_value, cfunc = value, ctype
            else:
                raise CodegenError("called object is not a function",
                                   expr.line)

        info = self.functions.get(direct.name) if direct is not None else None
        sret = info.sret if info is not None else cfunc.ret.is_struct

        args: List[Value] = []
        result_slot = None
        if sret:
            result_slot = self.alloca_builder.alloca(cfunc.ret.ir, "rettmp")
            args.append(result_slot)

        params = cfunc.params
        if len(expr.args) < len(params):
            raise CodegenError(
                f"too few arguments in call", expr.line)
        if len(expr.args) > len(params) and not cfunc.variadic:
            raise CodegenError("too many arguments in call", expr.line)
        for i, arg_expr in enumerate(expr.args):
            value, vtype = self._rvalue_or_array(arg_expr)
            if i < len(params):
                ptype = params[i]
                if ptype.is_pointer and ptype.pointee.is_struct and \
                        vtype.is_struct:
                    # struct by value: caller-private copy
                    copy = self.alloca_builder.alloca(vtype.ir, "bycopy")
                    self._emit_memcpy(copy, value, self._type_size(vtype))
                    args.append(copy)
                    continue
                args.append(self._convert(value, vtype, ptype, expr.line))
            else:
                # default argument promotions for varargs
                promoted = ct.promote(self._debool(vtype))
                args.append(self._convert(value, vtype, promoted,
                                          expr.line))
        if direct is not None:
            call = self.builder.call(direct, args)
        else:
            call = self.builder.call(callee_value, args)
        if sret:
            return result_slot, cfunc.ret
        return call, cfunc.ret

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def _convert(self, value: Value, from_t: ct.CType, to_t: ct.CType,
                 line: int, explicit: bool = False) -> Value:
        if from_t == ct.BOOL and to_t != ct.BOOL:
            value = self.builder.zext(value, irt.I32)
            from_t = ct.INT
        if from_t == to_t or from_t.ir == to_t.ir and (
                from_t.is_pointer and to_t.is_pointer):
            return value
        if from_t.is_integer and to_t.is_integer:
            if from_t.bits == to_t.bits:
                return value
            if from_t.bits > to_t.bits:
                return self.builder.trunc(value, to_t.ir)
            if from_t.signed:
                return self.builder.sext(value, to_t.ir)
            return self.builder.zext(value, to_t.ir)
        if from_t.is_integer and to_t.is_float:
            op = "sitofp" if from_t.signed else "uitofp"
            return self.builder.cast(op, value, to_t.ir)
        if from_t.is_float and to_t.is_integer:
            op = "fptosi" if to_t.signed else "fptoui"
            return self.builder.cast(op, value, to_t.ir)
        if from_t.is_float and to_t.is_float:
            op = "fpext" if to_t.bits > from_t.bits else "fptrunc"
            return self.builder.cast(op, value, to_t.ir)
        if from_t.is_pointer and to_t.is_pointer:
            return self.builder.bitcast(value, to_t.ir)
        if from_t.is_pointer and to_t.is_integer:
            wide = self.builder.cast("ptrtoint", value, irt.I64)
            return self._convert(wide, ct.ULONG, to_t, line, explicit)
        if from_t.is_integer and to_t.is_pointer:
            wide = self._convert(value, from_t, ct.ULONG, line, explicit)
            return self.builder.cast("inttoptr", wide, to_t.ir)
        if from_t == ct.BOOL and to_t == ct.BOOL:
            return value
        raise CodegenError(f"cannot convert {from_t} to {to_t}", line)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _emit_memcpy(self, dst: Value, src: Value, size: int) -> None:
        info = self._implicit_builtin("memcpy")
        voidp = ct.CPointer(ct.VOID).ir
        dst_c = self.builder.bitcast(dst, voidp)
        src_c = self.builder.bitcast(src, voidp)
        self.builder.call(info.ir_fn,
                          [dst_c, src_c, Constant(irt.I64, size)])
