"""AST node definitions for the mini-C frontend."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# ---------------------------------------------------------------------------
# Type syntax (resolved to concrete C types by the code generator)
# ---------------------------------------------------------------------------

@dataclass
class TypeSpec:
    """A parsed type: base specifier plus declarator-derived wrapping."""

    base: str                      # 'int', 'double', 'struct Foo', typedef name, ...
    pointers: int = 0              # number of '*'
    array_dims: List[Optional[int]] = field(default_factory=list)
    func_params: Optional[List["ParamDecl"]] = None  # function (pointer) type
    func_variadic: bool = False
    func_pointers: int = 0         # pointer depth of a function declarator

    def __str__(self) -> str:
        s = self.base + "*" * self.pointers
        for dim in self.array_dims:
            s += f"[{dim if dim is not None else ''}]"
        if self.func_params is not None:
            s = f"{s} (*)(...)"
        return s


@dataclass
class ParamDecl:
    type: TypeSpec
    name: str
    line: int = 0


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    line: int = 0


@dataclass
class IntLit(Expr):
    value: int
    line: int = 0


@dataclass
class FloatLit(Expr):
    value: float
    line: int = 0


@dataclass
class CharLit(Expr):
    value: int
    line: int = 0


@dataclass
class StrLit(Expr):
    value: str  # its bytes, one character (U+0000–U+00FF) each
    line: int = 0


@dataclass
class Ident(Expr):
    name: str
    line: int = 0


@dataclass
class Unary(Expr):
    op: str                 # '-', '+', '!', '~', '*', '&', '++', '--'
    operand: Expr
    postfix: bool = False   # for ++/--
    line: int = 0


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass
class Assign(Expr):
    op: str                 # '=', '+=', ...
    target: Expr
    value: Expr
    line: int = 0


@dataclass
class Conditional(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr
    line: int = 0


@dataclass
class CallExpr(Expr):
    callee: Expr
    args: List[Expr]
    line: int = 0


@dataclass
class Index(Expr):
    base: Expr
    index: Expr
    line: int = 0


@dataclass
class Member(Expr):
    base: Expr
    name: str
    arrow: bool
    line: int = 0


@dataclass
class CastExpr(Expr):
    type: TypeSpec
    operand: Expr
    line: int = 0


@dataclass
class SizeofExpr(Expr):
    type: Optional[TypeSpec]
    operand: Optional[Expr]
    line: int = 0


@dataclass
class InitList(Expr):
    """Braced initializer list (globals and local aggregates)."""
    elements: List[Expr]
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr]
    line: int = 0


@dataclass
class DeclStmt(Stmt):
    type: TypeSpec
    name: str
    init: Optional[Expr]
    line: int = 0


@dataclass
class Block(Stmt):
    statements: List[Stmt]
    line: int = 0


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt]
    line: int = 0


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt
    line: int = 0


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr
    line: int = 0


@dataclass
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt
    line: int = 0


@dataclass
class Return(Stmt):
    value: Optional[Expr]
    line: int = 0


@dataclass
class Break(Stmt):
    line: int = 0


@dataclass
class Continue(Stmt):
    line: int = 0


@dataclass
class SwitchStmt(Stmt):
    value: Expr
    cases: List[Tuple[Optional[int], List[Stmt]]]  # None = default
    line: int = 0


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------

class TopLevel:
    line: int = 0


@dataclass
class StructDef(TopLevel):
    name: str
    fields: List[ParamDecl]
    line: int = 0


@dataclass
class TypedefDecl(TopLevel):
    name: str
    type: TypeSpec
    line: int = 0


@dataclass
class EnumDef(TopLevel):
    name: Optional[str]
    members: List[Tuple[str, int]]
    line: int = 0


@dataclass
class GlobalDecl(TopLevel):
    type: TypeSpec
    name: str
    init: Optional[Expr]
    is_extern: bool = False
    line: int = 0


@dataclass
class FunctionDef(TopLevel):
    ret_type: TypeSpec
    name: str
    params: List[ParamDecl]
    variadic: bool
    body: Optional[Block]          # None for prototypes
    line: int = 0
    end_line: int = 0


@dataclass
class TranslationUnit:
    decls: List[TopLevel]
    source_lines: int = 0
