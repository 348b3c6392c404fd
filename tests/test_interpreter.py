"""Tests for the IR interpreter: semantics, timing, faults."""

import pytest

from repro.frontend import compile_c
from repro.ir import (Constant, Function, FunctionType, IRBuilder, Module,
                      I1, I8, I32, I64, F64)
from repro.machine import (GLOBAL_BASES, NATIVE_HEAP_BASES,
                           BadFunctionPointer, ExecutionLimitExceeded,
                           Interpreter, Machine, OutOfMemoryError,
                           StackOverflow, boot, to_signed)
from repro.targets import (ARM32, CYCLE_TIME_SCALE, UNIFIED_ORDER_KEY,
                           UNIFIED_POINTER_KEY, X86_64)

from conftest import interp_for, run_c


def eval_expr(op, lhs, rhs, type_=I32):
    """Build a module computing a single binop and run it."""
    m = Module()
    fn = Function("f", FunctionType(type_, [type_, type_]), ["a", "b"])
    m.add_function(fn)
    b = IRBuilder(fn.add_block("entry"))
    b.ret(b.binop(op, fn.args[0], fn.args[1]))
    return Interpreter(boot(m, ARM32)).call_by_name("f", [lhs, rhs])


class TestIntegerSemantics:
    def test_add_wraps(self):
        assert eval_expr("add", 0xFFFFFFFF, 1) == 0

    def test_sub_wraps(self):
        assert to_signed(eval_expr("sub", 0, 1), 32) == -1

    def test_mul_wraps(self):
        assert eval_expr("mul", 1 << 31, 2) == 0

    def test_sdiv_truncates_toward_zero(self):
        # -7 / 2 == -3 in C
        assert to_signed(eval_expr("sdiv", 0xFFFFFFF9, 2), 32) == -3

    def test_srem_sign_follows_dividend(self):
        # -7 % 2 == -1 in C
        assert to_signed(eval_expr("srem", 0xFFFFFFF9, 2), 32) == -1

    def test_sdiv_srem_are_exact_at_64_bits(self):
        # above 2**53 a quotient computed through a float is wrong
        big = 2**62 + 1
        assert eval_expr("sdiv", big, 1, I64) == big
        assert eval_expr("sdiv", big, 3, I64) == 1537228672809129301
        assert eval_expr("srem", big, 3, I64) == 2
        minus_big = (1 << 64) - big
        assert to_signed(eval_expr("sdiv", minus_big, 3, I64), 64) == \
            -1537228672809129301
        assert to_signed(eval_expr("srem", minus_big, 3, I64), 64) == -2
        assert to_signed(eval_expr("srem", big, (1 << 64) - 3, I64), 64) == 2

    def test_udiv(self):
        assert eval_expr("udiv", 0xFFFFFFFE, 2) == 0x7FFFFFFF

    def test_shifts(self):
        assert eval_expr("shl", 1, 31) == 0x80000000
        assert eval_expr("lshr", 0x80000000, 31) == 1
        assert to_signed(eval_expr("ashr", 0x80000000, 31), 32) == -1

    def test_bitwise(self):
        assert eval_expr("and", 0b1100, 0b1010) == 0b1000
        assert eval_expr("or", 0b1100, 0b1010) == 0b1110
        assert eval_expr("xor", 0b1100, 0b1010) == 0b0110

    def test_division_by_zero_raises(self):
        from repro.machine import InterpreterError
        with pytest.raises(InterpreterError, match="zero"):
            eval_expr("sdiv", 1, 0)


class TestFloatSemantics:
    def test_fp_ops(self):
        assert eval_expr("fadd", 1.5, 2.25, F64) == 3.75
        assert eval_expr("fmul", 3.0, 0.5, F64) == 1.5
        assert eval_expr("fdiv", 1.0, 4.0, F64) == 0.25

    def test_fdiv_by_zero_gives_inf(self):
        assert eval_expr("fdiv", 1.0, 0.0, F64) == float("inf")


class TestControlFlowAndCalls:
    FIB = """
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main() { printf("%d\\n", fib(15)); return 0; }
    """

    def test_recursion(self):
        code, out = run_c(self.FIB)
        assert code == 0
        assert out.strip() == "610"

    def test_indirect_call_through_table(self):
        src = """
        typedef int (*FN)(int);
        int dbl(int x) { return 2 * x; }
        int sqr(int x) { return x * x; }
        FN table[2] = { dbl, sqr };
        int main() {
            printf("%d %d\\n", table[0](21), table[1](7));
            return 0;
        }
        """
        assert run_c(src)[1].strip() == "42 49"

    def test_bad_function_pointer_faults(self):
        interp = interp_for("""
        int main() { return 0; }
        """)
        m = interp.machine.module
        fn = Function("caller", FunctionType(I32, []), [])
        m.add_function(fn)
        interp.machine.function_addresses["caller"] = 0xDEAD0
        b = IRBuilder(fn.add_block("entry"))
        from repro.ir import Cast, ptr
        bogus = b.cast("inttoptr", b.i64(0x12345),
                       ptr(FunctionType(I32, [])))
        b.ret(b.call(bogus, []))
        with pytest.raises(BadFunctionPointer):
            interp.call_function(fn, [])

    def test_stack_overflow_detected(self):
        src = """
        int boom(int n) { int pad[200]; pad[0] = n; return boom(n + pad[0]); }
        int main() { return boom(1); }
        """
        interp = interp_for(src)
        with pytest.raises(StackOverflow):
            interp.run_main()

    def test_execution_limit(self):
        src = "int main() { while (1) {} return 0; }"
        interp = Interpreter(boot(compile_c(src, "spin"), ARM32),
                             max_instructions=10_000)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()


class TestTiming:
    def test_server_is_faster(self):
        src = """
        int main() {
            int i, acc = 0;
            for (i = 0; i < 20000; i++) acc += i ^ (acc << 1);
            printf("%d\\n", acc);
            return 0;
        }
        """
        module = compile_c(src, "t")
        times = {}
        for arch in (ARM32, X86_64):
            interp = Interpreter(boot(
                module, arch, "mobile" if arch is ARM32 else "server"))
            interp.run_main()
            times[arch.name] = interp.time_seconds
        ratio = times["arm32"] / times["x86_64"]
        assert 4.0 < ratio < 8.0, f"mobile/server gap {ratio} out of band"

    def test_cycle_accounting_is_scaled(self):
        interp = interp_for("int main() { return 0; }")
        interp.charge("alu", 1)
        assert interp.cycles == pytest.approx(
            ARM32.cycles["alu"] * CYCLE_TIME_SCALE)

    def test_raw_cycles_not_scaled(self):
        interp = interp_for("int main() { return 0; }")
        interp.charge_raw_cycles(300)
        assert interp.cycles == pytest.approx(300)

    def test_instruction_count_grows(self):
        interp = interp_for(
            "int main() { int i, s = 0;"
            " for (i = 0; i < 100; i++) s += i; return s; }")
        interp.run_main()
        assert 300 < interp.instruction_count < 3000


class TestNativeGlobalSegment:
    """Native globals are laid out from GLOBAL_BASES[role] up; the segment
    must stop short of the role's native heap, or malloc hands out bytes
    a global already owns."""

    def test_global_reaching_the_heap_is_refused(self):
        src = """
        int big[4500000];
        int main() {
            int *p;
            big[3932160] = 5;
            p = malloc(64);
            p[0] = 42;
            printf("%d\\n", big[3932160]);
            return 0;
        }
        """
        with pytest.raises(OutOfMemoryError, match="'big'.*native heap"):
            run_c(src)

    def test_huge_global_is_refused_before_any_page_is_mapped(self):
        machine = Machine(ARM32, "mobile")
        module = compile_c("int a[2147483647];\nint main() { return 0; }",
                           "huge")
        with pytest.raises(OutOfMemoryError, match="'a'"):
            machine.load(module)
        assert not machine.memory.pages

    @pytest.mark.parametrize("role", ["mobile", "server"])
    def test_globals_ending_at_the_heap_base_still_run(self, role):
        ints = (NATIVE_HEAP_BASES[role] - GLOBAL_BASES[role]) // 4
        src = f"""
        int big[{ints}];
        int main() {{
            int *p;
            big[{ints - 1}] = 5;
            p = malloc(64);
            p[0] = 42;
            return big[{ints - 1}];
        }}
        """
        assert Interpreter(boot(compile_c(src, "edge"), ARM32,
                                role)).run_main() == 5
        with pytest.raises(OutOfMemoryError, match="'big'"):
            boot(compile_c(src.replace(f"[{ints}]", f"[{ints + 1}]"),
                           "over"), ARM32, role)


class TestUnificationOverheadCounters:
    def test_pointer_conversion_counted_on_server(self):
        src = """
        int *p;
        int main() {
            int x = 5;
            p = &x;
            printf("%d\\n", *p);
            return 0;
        }
        """
        module = compile_c(src, "pc")
        module.metadata[UNIFIED_POINTER_KEY] = 4
        machine = boot(module, X86_64, "server")
        interp = Interpreter(machine)
        interp.run_main()
        assert machine.pointer_conversions > 0

    def test_endian_swaps_counted_for_cross_endian_layout(self):
        src = "int g; int main() { g = 7; printf(\"%d\\n\", g); return 0; }"
        module = compile_c(src, "es")
        module.metadata[UNIFIED_ORDER_KEY] = "big"
        machine = boot(module, X86_64, "server")
        interp = Interpreter(machine)
        assert interp.run_main() == 0
        assert machine.endian_swaps > 0
        assert machine.io.stdout == b"7\n"
