"""Tests for the mini-C frontend: lexer, parser, and end-to-end codegen
semantics (each snippet is compiled, executed, and its output checked)."""

import sys

import pytest

from repro.frontend import (CodegenError, LexError, ParseError, compile_c,
                            parse_c, preprocess, tokenize)

from conftest import run_c


class TestLexer:
    def test_tokens(self):
        toks = tokenize("int x = 42;")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("kw", "int"), ("id", "x"), ("op", "="), ("int", "42"),
            ("op", ";")]

    def test_numbers(self):
        toks = tokenize("1 0x1F 2.5 1e3 3.0f 42u 7L")
        values = [t.value for t in toks[:-1]]
        assert values == [1, 31, 2.5, 1000.0, 3.0, 42, 7]

    def test_char_and_string_escapes(self):
        toks = tokenize(r"'\n' "
                        r'"a\tb\0"')
        assert toks[0].value == 10
        assert toks[1].value == "a\tb\0"

    def test_adjacent_strings_merge(self):
        toks = tokenize('"foo" "bar"')
        assert toks[0].value == "foobar"

    def test_comments_stripped(self):
        text = preprocess("a /* multi\nline */ b // tail\nc")
        assert "multi" not in text and "tail" not in text
        assert text.count("\n") == 2  # line numbers preserved

    def test_defines_substituted(self):
        text = preprocess("#define N 10\nint a[N];")
        assert "int a[10];" in text

    def test_nested_defines(self):
        text = preprocess("#define A B\n#define B 3\nx = A;")
        assert "x = 3;" in text

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_escapes_are_bytes_and_source_text_is_utf8(self):
        """A literal's value holds one character per byte: an escape is
        the byte it names, a character outside ASCII its UTF-8 bytes."""
        toks = tokenize(r'"\xc8\x41" "\200\377\0010" "é" '
                        r"'\xff' '\377'")
        assert toks[0].value == "\xc8A\x80\xff\x010\xc3\xa9"
        assert [toks[1].value, toks[2].value] == [255, 255]

    @pytest.mark.parametrize("literal", [r'"\x"', r'"\x80A"', r'"\400"',
                                         "'é'"])
    def test_an_escape_or_char_that_is_not_one_byte_raises(self, literal):
        with pytest.raises(LexError, match="line 2"):
            tokenize("\n" + literal)

    @pytest.mark.parametrize("source", [
        "double x = 1.0e;", "int f() { return 0Ex; }", "double y = 2e+;"],
        ids=["exponent-empty", "exponent-then-letter", "exponent-sign"])
    def test_a_float_with_an_empty_exponent_is_a_lex_error(self, source):
        with pytest.raises(LexError, match="line 2: malformed number"):
            compile_c("int a;\n" + source)


class TestParser:
    def test_typedef_struct(self):
        unit = parse_c("typedef struct { int a; double b; } Pair;"
                       "Pair p;")
        kinds = [type(d).__name__ for d in unit.decls]
        assert "StructDef" in kinds
        assert "TypedefDecl" in kinds

    def test_function_pointer_typedef(self):
        unit = parse_c("typedef int (*CB)(int, double);")
        td = unit.decls[-1]
        assert td.type.func_params is not None
        assert td.type.func_pointers == 1

    def test_enum_constants_fold(self):
        unit = parse_c("enum { A, B = 5, C }; int x[C];")
        glob = unit.decls[-1]
        assert glob.type.array_dims == [6]

    def test_const_expr_array_dim(self):
        unit = parse_c("#define N 8\nint grid[N * N + 1];")
        assert unit.decls[-1].type.array_dims == [65]

    def test_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_c("int main() {\n  int x;\n  x = ;\n}")

    def test_statement_before_case_rejected(self):
        with pytest.raises(ParseError):
            parse_c("int main(){switch(1){int x;}}")

    @pytest.mark.parametrize("source,message", [
        ("int x = 1/0;", "division by zero"),
        ("int a[1 % 0];", "division by zero"),
        ("int a[1 << -1];", "shift by -1"),
        ("int a[-1];", "array size -1 is negative"),
        ("int main() { return " + "(" * 150 + "1" + ")" * 150 + "; }",
         "nesting too deep"),
        ("int main() { struct S p, q; return p == q; }",
         "operator == on struct S and struct S"),
        ("int main() { struct S p; int *q = 0; return p != q; }",
         "operator != on struct S and int32*"),
        ("int main() { struct S p; return -p; }", "operator - on struct S"),
        ("int main() { struct S p; return p.b; }",
         "struct S has no field 'b'"),
        ("int main() { double d = 1.0; return ~d; }",
         "operator ~ on float64"),
        ("int f() { return 1; }\nint f() { return 2; }",
         "redefinition of f"),
    ], ids=["const-div0", "dim-mod0", "dim-shift", "dim-negative",
            "nesting", "struct-eq", "struct-ptr-ne", "struct-neg",
            "no-field", "double-bitnot", "redefinition"])
    def test_bad_source_is_a_diagnostic_with_a_line(self, source, message):
        """Every bad input fails with the front end's own error naming
        the line, never a raw Python exception.  Nesting is capped by
        Python's recursion limit, which the guest interpreter raises
        for the rest of the process; the default is restored here."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with pytest.raises((ParseError, CodegenError),
                               match=f"line {source.count(chr(10)) + 2}: "
                                     f"{message}"):
                compile_c("struct S { int a; };\n" + source)
        finally:
            sys.setrecursionlimit(limit)


class TestExpressionSemantics:
    def test_precedence(self):
        assert run_c(r'int main(){printf("%d\n", 2 + 3 * 4);return 0;}')[1] \
            == "14\n"

    def test_ternary(self):
        src = r'int main(){int x = 5;' \
              r'printf("%d\n", x > 3 ? x * 2 : -1);return 0;}'
        assert run_c(src)[1] == "10\n"

    def test_short_circuit_and(self):
        src = r'''
        int calls = 0;
        int bump(void) { calls++; return 1; }
        int main() {
            int r = 0 && bump();
            printf("%d %d\n", r, calls);
            return 0;
        }
        '''
        assert run_c(src)[1] == "0 0\n"

    def test_short_circuit_or(self):
        src = r'''
        int calls = 0;
        int bump(void) { calls++; return 0; }
        int main() {
            int r = 1 || bump();
            printf("%d %d\n", r, calls);
            return 0;
        }
        '''
        assert run_c(src)[1] == "1 0\n"

    def test_pre_post_increment(self):
        src = r'''
        int main() {
            int i = 5;
            printf("%d ", i++);
            printf("%d ", i);
            printf("%d ", ++i);
            printf("%d\n", i--);
            return 0;
        }
        '''
        assert run_c(src)[1] == "5 6 7 7\n"

    def test_compound_assignment(self):
        src = r'''
        int main() {
            int x = 10;
            x += 5; x *= 2; x -= 6; x /= 4; x %= 4;
            printf("%d\n", x);
            return 0;
        }
        '''
        assert run_c(src)[1] == "2\n"

    def test_unsigned_comparison(self):
        src = r'''
        int main() {
            unsigned int big = 0xFFFFFFFF;
            printf("%d\n", big > 5u ? 1 : 0);
            return 0;
        }
        '''
        assert run_c(src)[1] == "1\n"

    def test_signed_division_and_modulo(self):
        src = r'int main(){printf("%d %d\n", -7 / 2, -7 % 2);return 0;}'
        assert run_c(src)[1] == "-3 -1\n"

    def test_integer_promotion_char_arith(self):
        src = r'''
        int main() {
            char a = 100; char b = 100;
            int sum = a + b;          /* promoted: no 8-bit wrap */
            char wrapped = (char)(a + b);
            printf("%d %d\n", sum, wrapped);
            return 0;
        }
        '''
        assert run_c(src)[1] == "200 -56\n"

    def test_float_int_conversions(self):
        src = r'''
        int main() {
            double d = 7.9;
            int i = (int) d;
            double back = i / 2.0;
            printf("%d %.1f\n", i, back);
            return 0;
        }
        '''
        assert run_c(src)[1] == "7 3.5\n"

    def test_sizeof(self):
        src = r'''
        typedef struct { char c; double d; } S;
        int main() {
            printf("%d %d %d %d\n", (int)sizeof(int),
                   (int)sizeof(double), (int)sizeof(S),
                   (int)sizeof(char*));
            return 0;
        }
        '''
        # compiled for the 32-bit mobile target (ARM layout)
        assert run_c(src)[1] == "4 8 16 4\n"

    def test_comma_operator(self):
        src = r'int main(){int x = (1, 2, 3); printf("%d\n", x);return 0;}'
        assert run_c(src)[1] == "3\n"

    def test_bitwise_ops(self):
        src = r'int main(){printf("%d %d %d %d\n",' \
              r' 12 & 10, 12 | 10, 12 ^ 10, ~0 & 255);return 0;}'
        assert run_c(src)[1] == "8 14 6 255\n"


class TestPointersAndArrays:
    def test_pointer_arithmetic(self):
        src = r'''
        int main() {
            int a[5]; int *p = a; int i;
            for (i = 0; i < 5; i++) a[i] = i * i;
            printf("%d %d %d\n", *p, *(p + 3), p[4]);
            return 0;
        }
        '''
        assert run_c(src)[1] == "0 9 16\n"

    def test_pointer_difference(self):
        src = r'''
        int main() {
            int a[10];
            int *p = &a[7];
            int *q = &a[2];
            printf("%d\n", (int)(p - q));
            return 0;
        }
        '''
        assert run_c(src)[1] == "5\n"

    def test_2d_array(self):
        src = r'''
        int main() {
            int m[3][4];
            int i, j, s = 0;
            for (i = 0; i < 3; i++)
                for (j = 0; j < 4; j++)
                    m[i][j] = i * 10 + j;
            for (i = 0; i < 3; i++) s += m[i][i];
            printf("%d %d\n", s, m[2][3]);
            return 0;
        }
        '''
        assert run_c(src)[1] == "33 23\n"

    def test_pointer_to_pointer(self):
        src = r'''
        int main() {
            int x = 7;
            int *p = &x;
            int **pp = &p;
            **pp = 9;
            printf("%d\n", x);
            return 0;
        }
        '''
        assert run_c(src)[1] == "9\n"

    def test_array_decay_to_function(self):
        src = r'''
        int sum(int *v, int n) {
            int i, s = 0;
            for (i = 0; i < n; i++) s += v[i];
            return s;
        }
        int main() {
            int a[4];
            int i;
            for (i = 0; i < 4; i++) a[i] = i + 1;
            printf("%d\n", sum(a, 4));
            return 0;
        }
        '''
        assert run_c(src)[1] == "10\n"

    def test_string_literal_global(self):
        src = r'''
        char *msg = "shared";
        int main() { printf("%s %s\n", msg, "inline"); return 0; }
        '''
        assert run_c(src)[1] == "shared inline\n"

    def test_local_array_initializer(self):
        src = r'''
        int main() {
            int a[4] = { 3, 1, 4, 1 };
            printf("%d\n", a[0] * 1000 + a[1] * 100 + a[2] * 10 + a[3]);
            return 0;
        }
        '''
        assert run_c(src)[1] == "3141\n"


class TestStructs:
    def test_struct_member_access(self):
        src = r'''
        typedef struct { int x; int y; } Point;
        int main() {
            Point p;
            p.x = 3; p.y = 4;
            printf("%d\n", p.x * p.x + p.y * p.y);
            return 0;
        }
        '''
        assert run_c(src)[1] == "25\n"

    def test_struct_pointer_arrow(self):
        src = r'''
        typedef struct Node { int value; struct Node *next; } Node;
        int main() {
            Node a; Node b;
            a.value = 1; a.next = &b;
            b.value = 2; b.next = NULL;
            int total = 0;
            Node *cur = &a;
            while (cur) { total += cur->value; cur = cur->next; }
            printf("%d\n", total);
            return 0;
        }
        '''
        assert run_c(src)[1] == "3\n"

    def test_struct_by_value_argument(self):
        src = r'''
        typedef struct { int a; int b; } Pair;
        int apply(Pair p) { p.a = 99; return p.a + p.b; }
        int main() {
            Pair p; p.a = 1; p.b = 2;
            int r = apply(p);
            printf("%d %d\n", r, p.a);   /* caller copy untouched */
            return 0;
        }
        '''
        assert run_c(src)[1] == "101 1\n"

    def test_struct_return_by_value(self):
        src = r'''
        typedef struct { char from, to; double score; } Move;
        Move mk(double s) { Move m; m.from = 1; m.to = 2; m.score = s; return m; }
        int main() {
            Move m = mk(4.5);
            printf("%d %d %.1f\n", m.from, m.to, m.score);
            return 0;
        }
        '''
        assert run_c(src)[1] == "1 2 4.5\n"

    def test_struct_assignment_copies(self):
        src = r'''
        typedef struct { int v[3]; } Box;
        int main() {
            Box a; Box b;
            a.v[0] = 1; a.v[1] = 2; a.v[2] = 3;
            b = a;
            b.v[1] = 99;
            printf("%d %d\n", a.v[1], b.v[1]);
            return 0;
        }
        '''
        assert run_c(src)[1] == "2 99\n"

    def test_array_of_structs(self):
        src = r'''
        typedef struct { char tag; int n; } Cell;
        Cell cells[4];
        int main() {
            int i, s = 0;
            for (i = 0; i < 4; i++) { cells[i].tag = 'a'; cells[i].n = i; }
            for (i = 0; i < 4; i++) s += cells[i].n;
            printf("%d %c\n", s, cells[2].tag);
            return 0;
        }
        '''
        assert run_c(src)[1] == "6 a\n"


class TestControlFlow:
    def test_switch_with_fallthrough(self):
        src = r'''
        int classify(int x) {
            int r = 0;
            switch (x) {
                case 1:
                case 2: r = 12; break;
                case 3: r = 3; break;
                default: r = -1;
            }
            return r;
        }
        int main() {
            printf("%d %d %d %d\n", classify(1), classify(2),
                   classify(3), classify(9));
            return 0;
        }
        '''
        assert run_c(src)[1] == "12 12 3 -1\n"

    def test_do_while(self):
        src = r'''
        int main() {
            int i = 10, n = 0;
            do { n++; i--; } while (i > 7);
            printf("%d\n", n);
            return 0;
        }
        '''
        assert run_c(src)[1] == "3\n"

    def test_break_continue(self):
        src = r'''
        int main() {
            int i, s = 0;
            for (i = 0; i < 100; i++) {
                if (i % 2) continue;
                if (i > 10) break;
                s += i;
            }
            printf("%d\n", s);
            return 0;
        }
        '''
        assert run_c(src)[1] == "30\n"

    def test_nested_loops(self):
        src = r'''
        int main() {
            int i, j, c = 0;
            for (i = 0; i < 5; i++)
                for (j = i; j < 5; j++)
                    c++;
            printf("%d\n", c);
            return 0;
        }
        '''
        assert run_c(src)[1] == "15\n"

    def test_global_initializers(self):
        src = r'''
        int scalar = 42;
        double pi = 3.25;
        int table[4] = { 9, 8, 7 };
        int main() {
            printf("%d %.2f %d %d %d\n", scalar, pi,
                   table[0], table[2], table[3]);
            return 0;
        }
        '''
        assert run_c(src)[1] == "42 3.25 9 7 0\n"

    def test_function_pointer_param(self):
        src = r'''
        typedef int (*OP)(int, int);
        int add(int a, int b) { return a + b; }
        int mul(int a, int b) { return a * b; }
        int fold(OP op, int *v, int n, int seed) {
            int i, acc = seed;
            for (i = 0; i < n; i++) acc = op(acc, v[i]);
            return acc;
        }
        int main() {
            int v[3];
            int i;
            for (i = 0; i < 3; i++) v[i] = i + 2;
            printf("%d %d\n", fold(add, v, 3, 0), fold(mul, v, 3, 1));
            return 0;
        }
        '''
        assert run_c(src)[1] == "9 24\n"
