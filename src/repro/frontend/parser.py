"""Recursive-descent parser for the mini-C subset.

Produces the AST in :mod:`repro.frontend.c_ast`.  The parser tracks typedef
and struct names so it can disambiguate declarations from expressions, the
one context-sensitivity of C grammar that matters here.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from . import c_ast as ast
from .lexer import Token, tokenize, preprocess


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"line {token.line}: {message} (near {token.text!r})")
        self.token = token


_BASE_TYPE_KWS = {"void", "char", "short", "int", "long", "float", "double",
                  "signed", "unsigned"}
_QUALIFIERS = {"const", "volatile", "register", "inline", "auto"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

# Binary operator precedence (higher binds tighter).
_BIN_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.typedefs: Set[str] = set()
        self.structs: Set[str] = set()
        self.enum_constants: dict = {}
        # Struct definitions encountered inline in declaration specifiers
        # (e.g. ``typedef struct { ... } Move;``), drained by the
        # translation-unit loop so they precede their first use.
        self.inline_struct_defs: List[ast.StructDef] = []

    # -- token helpers ----------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.cur
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, text: str) -> Optional[Token]:
        if self.cur.text == text and self.cur.kind in ("op", "kw"):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.cur.text == text and self.cur.kind in ("op", "kw"):
            return self.advance()
        raise ParseError(f"expected {text!r}", self.cur)

    def expect_ident(self) -> Token:
        if self.cur.kind != "id":
            raise ParseError("expected identifier", self.cur)
        return self.advance()

    # -- entry point --------------------------------------------------------
    def parse_translation_unit(self) -> ast.TranslationUnit:
        decls: List[ast.TopLevel] = []
        while self.cur.kind != "eof":
            items = self.parse_top_level()
            decls.extend(self.inline_struct_defs)
            self.inline_struct_defs = []
            decls.extend(items)
        return ast.TranslationUnit(decls)

    # -- top level ------------------------------------------------------
    def parse_top_level(self) -> List[ast.TopLevel]:
        line = self.cur.line
        if self.cur.text == "typedef":
            return [self.parse_typedef()]
        if self.cur.text == "enum" and self._is_enum_definition():
            return [self.parse_enum()]

        is_extern = False
        while self.cur.text in ("extern", "static"):
            is_extern = self.advance().text == "extern"

        base = self.parse_decl_specifiers()
        out: List[ast.TopLevel] = []
        if self.accept(";"):
            return out  # bare 'struct Foo;' forward declaration
        while True:
            name, spec = self.parse_declarator(base)
            if spec.func_params is not None and spec.func_pointers == 0:
                # function prototype or definition
                fn = ast.FunctionDef(
                    ret_type=ast.TypeSpec(base=spec.base,
                                          pointers=spec.pointers),
                    name=name, params=spec.func_params,
                    variadic=spec.func_variadic, body=None, line=line)
                if self.cur.text == "{":
                    fn.body = self.parse_block()
                    fn.end_line = self.tokens[self.pos - 1].line
                    out.append(fn)
                    return out
                out.append(fn)
            else:
                init = None
                if self.accept("="):
                    init = self.parse_initializer()
                out.append(ast.GlobalDecl(type=spec, name=name, init=init,
                                          is_extern=is_extern, line=line))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def _is_enum_definition(self) -> bool:
        nxt = self.peek()
        if nxt.text == "{":
            return True
        return nxt.kind == "id" and self.peek(2).text == "{"

    def parse_typedef(self) -> ast.TypedefDecl:
        line = self.expect("typedef").line
        base = self.parse_decl_specifiers()
        name, spec = self.parse_declarator(base)
        self.expect(";")
        self.typedefs.add(name)
        return ast.TypedefDecl(name=name, type=spec, line=line)

    def _parse_struct_body(self) -> List[ast.ParamDecl]:
        self.expect("{")
        fields: List[ast.ParamDecl] = []
        while not self.accept("}"):
            base = self.parse_decl_specifiers()
            while True:
                fname, fspec = self.parse_declarator(base,
                                                     allow_abstract=True)
                fields.append(ast.ParamDecl(type=fspec, name=fname,
                                            line=self.cur.line))
                if not self.accept(","):
                    break
            self.expect(";")
        return fields

    def parse_enum(self) -> ast.EnumDef:
        line = self.expect("enum").line
        name = self.advance().text if self.cur.kind == "id" else None
        self.expect("{")
        members: List[Tuple[str, int]] = []
        next_value = 0
        while not self.accept("}"):
            mname = self.expect_ident().text
            if self.accept("="):
                next_value = self.parse_const_int_expr()
            members.append((mname, next_value))
            self.enum_constants[mname] = next_value
            next_value += 1
            if not self.accept(","):
                self.expect("}")
                break
        self.accept(";")
        return ast.EnumDef(name=name, members=members, line=line)

    # -- types ------------------------------------------------------------
    def at_type_start(self) -> bool:
        token = self.cur
        if token.kind == "kw" and (token.text in _BASE_TYPE_KWS
                                   or token.text in ("struct", "union",
                                                     "enum")
                                   or token.text in _QUALIFIERS):
            return True
        return token.kind == "id" and token.text in self.typedefs

    def parse_decl_specifiers(self) -> str:
        """Parse type specifiers into a canonical base-type string."""
        words: List[str] = []
        struct_name: Optional[str] = None
        while True:
            token = self.cur
            if token.text in _QUALIFIERS or token.text == "static":
                self.advance()
                continue
            if token.text in ("struct", "union"):
                self.advance()
                if self.cur.kind == "id":
                    struct_name = self.advance().text
                else:
                    struct_name = (f"__anon_struct_{token.line}_"
                                   f"{len(self.inline_struct_defs)}")
                self.structs.add(struct_name)
                if self.cur.text == "{":
                    fields = self._parse_struct_body()
                    self.inline_struct_defs.append(ast.StructDef(
                        name=struct_name, fields=fields, line=token.line))
                continue
            if token.text == "enum":
                self.advance()
                if self.cur.kind == "id":
                    self.advance()
                words.append("int")
                continue
            if token.kind == "kw" and token.text in _BASE_TYPE_KWS:
                words.append(self.advance().text)
                continue
            if (token.kind == "id" and token.text in self.typedefs
                    and not words and struct_name is None):
                self.advance()
                return f"typedef:{token.text}"
            break
        if struct_name is not None:
            return f"struct:{struct_name}"
        if not words:
            raise ParseError("expected type specifier", self.cur)
        return _canonical_base(words, self.cur)

    def parse_declarator(self, base: str,
                         allow_abstract: bool = False
                         ) -> Tuple[str, ast.TypeSpec]:
        """Parse ``* ... name [dims] (params)`` declarators, including
        function pointers like ``double (*f)(Piece)``."""
        pointers = 0
        while self.accept("*"):
            pointers += 1

        func_pointers = 0
        name = ""
        inner_dims: List[Optional[int]] = []
        if self.cur.text == "(" and self.peek().text == "*":
            self.expect("(")
            while self.accept("*"):
                func_pointers += 1
            if self.cur.kind == "id":
                name = self.advance().text
            while self.accept("["):
                inner_dims.append(self._array_dim())
            self.expect(")")
        elif self.cur.kind == "id":
            name = self.advance().text
        elif not allow_abstract:
            raise ParseError("expected declarator name", self.cur)

        spec = ast.TypeSpec(base=base, pointers=pointers)
        spec.func_pointers = func_pointers
        spec.array_dims = inner_dims

        if self.cur.text == "(" and (func_pointers > 0 or name or
                                     allow_abstract):
            self.expect("(")
            params, variadic = self.parse_param_list()
            spec.func_params = params
            spec.func_variadic = variadic

        while self.accept("["):
            spec.array_dims.append(self._array_dim())
        return name, spec

    def _array_dim(self) -> Optional[int]:
        """The size between ``[`` and ``]`` (None when empty)."""
        if self.accept("]"):
            return None
        token = self.cur
        dim = self.parse_const_int_expr()
        if dim < 0:
            raise ParseError(f"array size {dim} is negative", token)
        self.expect("]")
        return dim

    def parse_param_list(self) -> Tuple[List[ast.ParamDecl], bool]:
        params: List[ast.ParamDecl] = []
        variadic = False
        if self.accept(")"):
            return params, variadic
        if self.cur.text == "void" and self.peek().text == ")":
            self.advance()
            self.expect(")")
            return params, variadic
        while True:
            if self.accept("..."):
                variadic = True
                break
            base = self.parse_decl_specifiers()
            pname, pspec = self.parse_declarator(base, allow_abstract=True)
            params.append(ast.ParamDecl(type=pspec, name=pname,
                                        line=self.cur.line))
            if not self.accept(","):
                break
        self.expect(")")
        return params, variadic

    def parse_type_name(self) -> ast.TypeSpec:
        """Type in a cast or sizeof: specifiers + abstract declarator."""
        base = self.parse_decl_specifiers()
        _, spec = self.parse_declarator(base, allow_abstract=True)
        return spec

    # -- constant folding for array dims / enums ---------------------------
    def parse_const_int_expr(self) -> int:
        expr = self.parse_conditional()
        return _fold_const(expr, self.enum_constants, self.cur)

    # -- statements -----------------------------------------------------
    def parse_block(self) -> ast.Block:
        line = self.expect("{").line
        statements: List[ast.Stmt] = []
        while not self.accept("}"):
            statements.extend(self.parse_statement())
        return ast.Block(statements=statements, line=line)

    def parse_statement(self) -> List[ast.Stmt]:
        token = self.cur
        if token.text == "{":
            return [self.parse_block()]
        if token.text == "if":
            return [self.parse_if()]
        if token.text == "while":
            return [self.parse_while()]
        if token.text == "do":
            return [self.parse_do_while()]
        if token.text == "for":
            return [self.parse_for()]
        if token.text == "switch":
            return [self.parse_switch()]
        if token.text == "return":
            self.advance()
            value = None if self.cur.text == ";" else self.parse_expr()
            self.expect(";")
            return [ast.Return(value=value, line=token.line)]
        if token.text == "break":
            self.advance()
            self.expect(";")
            return [ast.Break(line=token.line)]
        if token.text == "continue":
            self.advance()
            self.expect(";")
            return [ast.Continue(line=token.line)]
        if self.at_type_start():
            return self.parse_decl_statement()
        if self.accept(";"):
            return [ast.ExprStmt(expr=None, line=token.line)]
        expr = self.parse_expr()
        self.expect(";")
        return [ast.ExprStmt(expr=expr, line=token.line)]

    def parse_decl_statement(self) -> List[ast.Stmt]:
        line = self.cur.line
        base = self.parse_decl_specifiers()
        out: List[ast.Stmt] = []
        while True:
            name, spec = self.parse_declarator(base)
            init = self.parse_initializer() if self.accept("=") else None
            out.append(ast.DeclStmt(type=spec, name=name, init=init,
                                    line=line))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def parse_initializer(self) -> ast.Expr:
        if self.cur.text == "{":
            line = self.advance().line
            elements: List[ast.Expr] = []
            while not self.accept("}"):
                elements.append(self.parse_initializer())
                if not self.accept(","):
                    self.expect("}")
                    break
            return ast.InitList(elements=elements, line=line)
        return self.parse_assignment()

    def parse_if(self) -> ast.If:
        line = self.expect("if").line
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = _single(self.parse_statement())
        otherwise = None
        if self.accept("else"):
            otherwise = _single(self.parse_statement())
        return ast.If(cond=cond, then=then, otherwise=otherwise, line=line)

    def parse_while(self) -> ast.While:
        line = self.expect("while").line
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = _single(self.parse_statement())
        return ast.While(cond=cond, body=body, line=line)

    def parse_do_while(self) -> ast.DoWhile:
        line = self.expect("do").line
        body = _single(self.parse_statement())
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return ast.DoWhile(body=body, cond=cond, line=line)

    def parse_for(self) -> ast.For:
        line = self.expect("for").line
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.accept(";"):
            if self.at_type_start():
                decls = self.parse_decl_statement()
                init = ast.Block(statements=decls, line=line)
            else:
                expr = self.parse_expr()
                self.expect(";")
                init = ast.ExprStmt(expr=expr, line=line)
        cond = None if self.cur.text == ";" else self.parse_expr()
        self.expect(";")
        step = None if self.cur.text == ")" else self.parse_expr()
        self.expect(")")
        body = _single(self.parse_statement())
        return ast.For(init=init, cond=cond, step=step, body=body, line=line)

    def parse_switch(self) -> ast.SwitchStmt:
        line = self.expect("switch").line
        self.expect("(")
        value = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: List[Tuple[Optional[int], List[ast.Stmt], int]] = []
        current: Optional[List[ast.Stmt]] = None
        while not self.accept("}"):
            label = self.accept("case")
            if label is not None:
                const = self.parse_const_int_expr()
                self.expect(":")
                current = []
                cases.append((const, current, label.line))
                continue
            label = self.accept("default")
            if label is not None:
                self.expect(":")
                current = []
                cases.append((None, current, label.line))
                continue
            if current is None:
                raise ParseError("statement before first case label",
                                 self.cur)
            current.extend(self.parse_statement())
        return ast.SwitchStmt(value=value, cases=cases, line=line)

    # -- expressions ------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self.accept(","):
            rhs = self.parse_assignment()
            expr = ast.Binary(op=",", lhs=expr, rhs=rhs, line=rhs.line)
        return expr

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_conditional()
        if self.cur.kind == "op" and self.cur.text in _ASSIGN_OPS:
            op = self.advance().text
            rhs = self.parse_assignment()
            return ast.Assign(op=op, target=lhs, value=rhs, line=lhs.line)
        return lhs

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            if_true = self.parse_expr()
            self.expect(":")
            if_false = self.parse_conditional()
            return ast.Conditional(cond=cond, if_true=if_true,
                                   if_false=if_false, line=cond.line)
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self.parse_unary()
        while True:
            token = self.cur
            prec = _BIN_PREC.get(token.text) if token.kind == "op" else None
            if prec is None or prec < min_prec:
                return lhs
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = ast.Binary(op=token.text, lhs=lhs, rhs=rhs,
                             line=token.line)

    def parse_unary(self) -> ast.Expr:
        token = self.cur
        if token.kind == "op" and token.text in ("-", "+", "!", "~", "*", "&"):
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(op=token.text, operand=operand, line=token.line)
        if token.kind == "op" and token.text in ("++", "--"):
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(op=token.text, operand=operand, postfix=False,
                             line=token.line)
        if token.text == "sizeof":
            self.advance()
            if self.cur.text == "(" and self._paren_is_type():
                self.expect("(")
                type_spec = self.parse_type_name()
                self.expect(")")
                return ast.SizeofExpr(type=type_spec, operand=None,
                                      line=token.line)
            operand = self.parse_unary()
            return ast.SizeofExpr(type=None, operand=operand,
                                  line=token.line)
        if token.text == "(" and self._paren_is_type():
            self.expect("(")
            type_spec = self.parse_type_name()
            self.expect(")")
            operand = self.parse_unary()
            return ast.CastExpr(type=type_spec, operand=operand,
                                line=token.line)
        return self.parse_postfix()

    def _paren_is_type(self) -> bool:
        if self.cur.text != "(":
            return False
        nxt = self.peek()
        if nxt.kind == "kw" and (nxt.text in _BASE_TYPE_KWS
                                 or nxt.text in ("struct", "union", "enum")
                                 or nxt.text == "const"):
            return True
        return nxt.kind == "id" and nxt.text in self.typedefs

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.cur
            if token.text == "(":
                self.advance()
                args: List[ast.Expr] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                    self.expect(")")
                expr = ast.CallExpr(callee=expr, args=args, line=token.line)
            elif token.text == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                expr = ast.Index(base=expr, index=index, line=token.line)
            elif token.text == ".":
                self.advance()
                name = self.expect_ident().text
                expr = ast.Member(base=expr, name=name, arrow=False,
                                  line=token.line)
            elif token.text == "->":
                self.advance()
                name = self.expect_ident().text
                expr = ast.Member(base=expr, name=name, arrow=True,
                                  line=token.line)
            elif token.text in ("++", "--"):
                self.advance()
                expr = ast.Unary(op=token.text, operand=expr, postfix=True,
                                 line=token.line)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.cur
        if token.kind == "int":
            self.advance()
            return ast.IntLit(value=int(token.value), line=token.line)
        if token.kind == "float":
            self.advance()
            return ast.FloatLit(value=float(token.value), line=token.line)
        if token.kind == "char":
            self.advance()
            return ast.CharLit(value=int(token.value), line=token.line)
        if token.kind == "str":
            self.advance()
            return ast.StrLit(value=str(token.value), line=token.line)
        if token.kind == "id":
            self.advance()
            if token.text in self.enum_constants:
                return ast.IntLit(value=self.enum_constants[token.text],
                                  line=token.line)
            return ast.Ident(name=token.text, line=token.line)
        if token.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseError("expected expression", token)


def _single(statements: List[ast.Stmt]) -> ast.Stmt:
    if len(statements) == 1:
        return statements[0]
    return ast.Block(statements=statements,
                     line=statements[0].line if statements else 0)


def _canonical_base(words: List[str], token: Token) -> str:
    unsigned = "unsigned" in words
    words = [w for w in words if w not in ("signed", "unsigned")]
    joined = " ".join(sorted(words))
    mapping = {
        "void": "void",
        "char": "char",
        "short": "short", "int short": "short",
        "int": "int", "": "int",
        "long": "long", "int long": "long",
        "long long": "llong", "int long long": "llong",
        "float": "float",
        "double": "double", "double long": "double",
    }
    base = mapping.get(joined)
    if base is None:
        raise ParseError(f"unsupported type {' '.join(words)!r}", token)
    if unsigned:
        if base in ("void", "float", "double"):
            raise ParseError("unsigned non-integer type", token)
        base = "u" + base
    return base


def _fold_const(expr: ast.Expr, enum_constants: dict, token: Token) -> int:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.CharLit):
        return expr.value
    if isinstance(expr, ast.Ident) and expr.name in enum_constants:
        return enum_constants[expr.name]
    if isinstance(expr, ast.Unary) and not expr.postfix:
        value = _fold_const(expr.operand, enum_constants, token)
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(not value)
    if isinstance(expr, ast.Binary):
        lhs = _fold_const(expr.lhs, enum_constants, token)
        rhs = _fold_const(expr.rhs, enum_constants, token)
        ops = {
            "+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
            "*": lambda: lhs * rhs, "/": lambda: lhs // rhs,
            "%": lambda: lhs % rhs, "<<": lambda: lhs << rhs,
            ">>": lambda: lhs >> rhs, "&": lambda: lhs & rhs,
            "|": lambda: lhs | rhs, "^": lambda: lhs ^ rhs,
        }
        if expr.op in ops:
            try:
                return ops[expr.op]()
            except ZeroDivisionError:
                raise ParseError("division by zero in constant expression",
                                 token) from None
            except ValueError:      # a negative shift count
                raise ParseError(f"shift by {rhs} in constant expression",
                                 token) from None
    raise ParseError("expected integer constant expression", token)


def parse_c(source: str, predefines=None) -> ast.TranslationUnit:
    """Preprocess + lex + parse a mini-C source string."""
    text = preprocess(source, predefines)
    parser = Parser(tokenize(text))
    try:
        unit = parser.parse_translation_unit()
    except RecursionError:
        # Each nesting level (parenthesis, unary operator, statement)
        # costs a few Python frames; the interpreter's limit is the cap.
        raise ParseError("nesting too deep", parser.cur) from None
    unit.source_lines = source.count("\n") + 1
    return unit
