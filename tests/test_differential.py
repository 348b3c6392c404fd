"""Differential testing: compiled-and-interpreted C against Python
reference semantics, over hypothesis-generated inputs.

These tests pin the full stack (frontend -> IR -> interpreter -> libc) to
C's arithmetic rules: 32-bit wraparound, truncating division, shift
semantics, promotion, and pointer indexing.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.frontend import compile_c
from repro.machine import Interpreter, boot, to_signed
from repro.targets import ARM32, X86_64

i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small = st.integers(min_value=-1000, max_value=1000)


def run_fn(source, name, args, arch=ARM32):
    module = compile_c(source, "diff")
    machine = boot(module, arch, "mobile" if arch is ARM32 else "server")
    return Interpreter(machine).call_by_name(
        name, [a & 0xFFFFFFFF for a in args])


BINOP_SRC = r"""
int add32(int a, int b) { return a + b; }
int sub32(int a, int b) { return a - b; }
int mul32(int a, int b) { return a * b; }
int div32(int a, int b) { return a / b; }
int rem32(int a, int b) { return a % b; }
int and32(int a, int b) { return a & b; }
int xor32(int a, int b) { return a ^ b; }
int shl32(int a, int b) { return a << (b & 31); }
int main() { return 0; }
"""


def wrap32(x: int) -> int:
    return to_signed(x & 0xFFFFFFFF, 32)


@given(i32, i32)
@settings(max_examples=80, deadline=None)
def test_add_sub_mul_wrap_like_c(a, b):
    assert to_signed(run_fn(BINOP_SRC, "add32", [a, b]), 32) == \
        wrap32(a + b)
    assert to_signed(run_fn(BINOP_SRC, "sub32", [a, b]), 32) == \
        wrap32(a - b)
    assert to_signed(run_fn(BINOP_SRC, "mul32", [a, b]), 32) == \
        wrap32(a * b)


@given(i32, i32)
@settings(max_examples=80, deadline=None)
def test_division_truncates_toward_zero(a, b):
    assume(b != 0)
    assume(not (a == -(2**31) and b == -1))  # UB in C
    q = to_signed(run_fn(BINOP_SRC, "div32", [a, b]), 32)
    r = to_signed(run_fn(BINOP_SRC, "rem32", [a, b]), 32)
    assert q == int(a / b)
    assert r == a - int(a / b) * b
    assert q * b + r == a


DIV64_SRC = r"""
long div64(long a, long b) { return a / b; }
long rem64(long a, long b) { return a % b; }
int main() { return 0; }
"""
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@given(i64, i64)
@example(2**62 + 1, 3)
@example(-(2**62) - 1, 3)
@example(2**63 - 1, -1)
@settings(max_examples=80, deadline=None)
def test_64_bit_division_truncates_toward_zero(a, b):
    """``long`` is 64 bits on X86_64: quotients above 2**53 must not go
    through a float."""
    assume(b != 0)
    assume(not (a == -(2**63) and b == -1))  # UB in C
    module = compile_c(DIV64_SRC, "diff", target=X86_64)
    machine = boot(module, X86_64, "server")
    args = [a & (2**64 - 1), b & (2**64 - 1)]
    q = to_signed(Interpreter(machine).call_by_name("div64", args), 64)
    r = to_signed(Interpreter(machine).call_by_name("rem64", args), 64)
    expected = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    assert q == expected
    assert r == a - expected * b  # takes the dividend's sign
    assert abs(r) < abs(b) and (r == 0 or (r < 0) == (a < 0))


@given(i32, i32)
@settings(max_examples=60, deadline=None)
def test_bitwise_matches_python(a, b):
    assert to_signed(run_fn(BINOP_SRC, "and32", [a, b]), 32) == \
        wrap32((a & 0xFFFFFFFF) & (b & 0xFFFFFFFF))
    assert to_signed(run_fn(BINOP_SRC, "xor32", [a, b]), 32) == \
        wrap32((a & 0xFFFFFFFF) ^ (b & 0xFFFFFFFF))


@given(i32, st.integers(min_value=0, max_value=31))
@settings(max_examples=60, deadline=None)
def test_shift_left_wraps(a, s):
    assert to_signed(run_fn(BINOP_SRC, "shl32", [a, s]), 32) == \
        wrap32(a << s)


POLY_SRC = r"""
int poly(int x, int a, int b, int c) {
    return a * x * x + b * x + c;
}
int main() { return 0; }
"""


@given(small, small, small, small)
@settings(max_examples=60, deadline=None)
def test_polynomial_identical_on_both_architectures(x, a, b, c):
    """The same IR computes the same values on the mobile and server
    machine models — the premise of cross-architecture offloading."""
    mobile = run_fn(POLY_SRC, "poly", [x, a, b, c], ARM32)
    server = run_fn(POLY_SRC, "poly", [x, a, b, c], X86_64)
    assert mobile == server
    assert to_signed(mobile, 32) == wrap32(a * x * x + b * x + c)


SUM_SRC = r"""
int *scratch;
int checksum(int n, int seed) {
    int i;
    long acc = 0;
    for (i = 0; i < n; i++) scratch[i] = seed + i * 7;
    for (i = 0; i < n; i++) acc += scratch[i] * (i + 1);
    return (int)(acc % 1000003);
}
int main() {
    scratch = (int*) malloc(512 * sizeof(int));
    return 0;
}
"""


@given(st.integers(min_value=1, max_value=256), small)
@settings(max_examples=25, deadline=None)
def test_array_walk_matches_reference(n, seed):
    module = compile_c(SUM_SRC, "diff")
    interp = Interpreter(boot(module, ARM32))
    interp.run_main()  # allocates scratch
    got = to_signed(interp.call_by_name(
        "checksum", [n, seed & 0xFFFFFFFF]), 32)
    acc = sum(wrap32(seed + i * 7) * (i + 1) for i in range(n))
    expected = wrap32(int(acc % 1000003) if acc >= 0
                      else -((-acc) % 1000003))
    # C's % on long follows truncation; acc fits in 64 bits here
    a = acc
    expected = a - int(a / 1000003) * 1000003
    assert got == wrap32(expected)


COND_SRC = r"""
int clamp(int x, int lo, int hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}
int main() { return 0; }
"""


@given(i32, small, small)
@settings(max_examples=60, deadline=None)
def test_clamp_matches_python(x, lo, hi):
    assume(lo <= hi)
    got = to_signed(run_fn(COND_SRC, "clamp", [x, lo, hi]), 32)
    assert got == max(lo, min(hi, x))
