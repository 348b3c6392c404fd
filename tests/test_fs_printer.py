"""Tests for the simulated I/O environment and the IR printer."""

import pytest

from repro.frontend import compile_c
from repro.ir import print_function, print_module
from repro.machine import IOEnvironment, SimFile


class TestIOEnvironment:
    def test_open_read(self):
        io = IOEnvironment(files={"a.txt": b"hello"})
        handle = io.open("a.txt", "r")
        assert handle > 0
        assert io.file(handle).read(5) == b"hello"
        assert io.file(handle).at_eof

    def test_open_missing_for_read_fails(self):
        io = IOEnvironment()
        assert io.open("missing", "r") == 0

    def test_write_mode_truncates(self):
        io = IOEnvironment(files={"a.txt": b"old content"})
        handle = io.open("a.txt", "w")
        io.file(handle).write(b"new")
        assert io.files["a.txt"] == bytearray(b"new")

    def test_append_mode(self):
        io = IOEnvironment(files={"a.txt": b"one"})
        handle = io.open("a.txt", "a")
        io.file(handle).write(b"two")
        assert io.files["a.txt"] == bytearray(b"onetwo")

    def test_close(self):
        io = IOEnvironment(files={"a.txt": b"x"})
        handle = io.open("a.txt", "r")
        assert io.close(handle) == 0
        assert io.file(handle) is None
        assert io.close(handle) == -1

    def test_read_line(self):
        f = SimFile("t", bytearray(b"ab\ncd\n"), writable=False)
        assert f.read_line(16) == b"ab\n"
        assert f.read_line(16) == b"cd\n"
        assert f.read_line(16) == b""

    def test_read_line_respects_limit(self):
        f = SimFile("t", bytearray(b"abcdefgh\n"), writable=False)
        assert f.read_line(4) == b"abc"   # limit-1 bytes, like fgets

    def test_stdout_capture(self):
        io = IOEnvironment()
        io.write_stdout(b"a")
        io.write_stdout(b"b")
        io.write_stderr(b"!")
        assert (io.stdout, io.stderr) == (b"ab", b"!")
        assert io.stdout_ops == 2

    def test_stdin_stream(self):
        io = IOEnvironment(stdin=b"12345")
        assert io.read_stdin(3) == b"123"
        assert io.read_stdin(10) == b"45"

    def test_write_extends_file(self):
        f = SimFile("t", bytearray(b"ab"), writable=True)
        f.pos = 4
        f.write(b"xy")
        assert bytes(f.data) == b"ab\x00\x00xy"

    def test_readonly_write_is_noop(self):
        f = SimFile("t", bytearray(b"ab"), writable=False)
        assert f.write(b"zz") == 0
        assert bytes(f.data) == b"ab"


class TestPrinter:
    SRC = r"""
    typedef struct { int a; double b; } Pair;
    Pair box;
    int table[3] = { 1, 2, 3 };
    char *msg = "hi";
    int helper(int x) { return x > 0 ? x : -x; }
    int main() {
        box.a = helper(-5);
        printf("%d\n", box.a + table[1]);
        return 0;
    }
    """

    @pytest.fixture(scope="class")
    def text(self):
        return print_module(compile_c(self.SRC, "p"))

    def test_struct_printed(self, text):
        assert "%Pair = type { i32 a, double b }" in text

    def test_globals_printed(self, text):
        assert "@box = global" in text
        assert "@table = global [3 x i32] [1, 2, 3]" in text
        assert "@msg = global i8* @.str.0+0" in text

    def test_functions_printed(self, text):
        assert "define i32 @helper(i32 %x)" in text
        assert "define i32 @main()" in text
        assert "declare i32 @printf" in text

    def test_instructions_printed(self, text):
        assert "call" in text
        assert "gep" in text
        assert "ret i32" in text
        assert "br " in text

    def test_every_result_named_uniquely(self):
        module = compile_c(self.SRC, "p")
        text = print_function(module.function("main"))
        names = [line.split(" = ")[0].strip()
                 for line in text.splitlines() if " = " in line]
        assert len(names) == len(set(names))

    def test_uva_marker_printed(self):
        module = compile_c(self.SRC, "p")
        module.global_("box").uva_allocated = True
        assert "@box = global uva" in print_module(module)
