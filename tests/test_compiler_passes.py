"""Tests for the offload compiler passes: selection, outlining, memory
unification, partitioning and server-specific optimization."""

import pytest

from repro.analysis import LoopInfo
from repro.frontend import compile_c
from repro.ir import Call, verify_module
from repro.ir import instructions as irinst
from repro.offload import (CompilerOptions, FunctionFilter,
                           NativeOffloaderCompiler, LOCAL_SUFFIX, OFFLOAD_PREFIX, SHOULD_OFFLOAD,
                           OutliningError, apply_function_pointer_mapping,
                           apply_remote_io, can_outline, outline_loop,
                           partition, reallocate_referenced_globals,
                           replace_allocation_sites, unify_memory)
from repro.profiler import profile_module
from repro.targets import ARM32, X86, X86_64, unified_data_layout
from repro.runtime import run_local

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN


def compiled(src):
    return compile_c(src, "m")


class TestOutlining:
    LOOP_SRC = r"""
    int total;
    int main() {
        int i;
        int n = 500;
        total = 0;
        for (i = 0; i < n; i++) {
            total += i * 3;
        }
        printf("%d\n", total);
        return 0;
    }
    """

    def test_outlined_program_is_equivalent(self):
        module = compiled(self.LOOP_SRC)
        baseline = run_local(module.clone())
        main = module.function("main")
        loop = LoopInfo(main).loops[0]
        outlined = outline_loop(module, loop, "main_loop_x")
        verify_module(module)
        after = run_local(module)
        assert after.output == baseline.output
        assert outlined.name in module.functions

    def test_call_site_created(self):
        module = compiled(self.LOOP_SRC)
        loop = LoopInfo(module.function("main")).loops[0]
        outline_loop(module, loop, "xloop")
        calls = [i for i in module.function("main").instructions()
                 if isinstance(i, Call)
                 and i.called_function is module.function("xloop")]
        assert len(calls) == 1

    def test_multi_exit_loop(self):
        src = r"""
        int main() {
            int i, s = 0;
            for (i = 0; i < 1000; i++) {
                if (i == 37) break;
                s += i;
            }
            printf("%d %d\n", i, s);
            return 0;
        }
        """
        module = compiled(src)
        baseline = run_local(module.clone())
        loop = LoopInfo(module.function("main")).loops[0]
        assert can_outline(loop) is None
        outline_loop(module, loop, "early_exit")
        verify_module(module)
        assert run_local(module).stdout == baseline.stdout == "37 666\n"

    def test_loop_with_early_return_outlines_correctly(self):
        # The `return` lands in an exit-trampoline block *outside* the
        # natural loop, so this is just another multi-exit loop.
        src = r"""
        int find(int n) {
            int i;
            for (i = 0; i < n; i++) {
                if (i * i > 50) return i;
            }
            return -1;
        }
        int main() { printf("%d\n", find(100)); return 0; }
        """
        module = compiled(src)
        baseline = run_local(module.clone())
        loop = LoopInfo(module.function("find")).loops[0]
        assert can_outline(loop) is None
        outline_loop(module, loop, "find_loop")
        verify_module(module)
        assert run_local(module).stdout == baseline.stdout == "8\n"

    def test_nested_loop_outlining(self):
        src = r"""
        int main() {
            int i, j, acc = 0;
            for (i = 0; i < 20; i++)
                for (j = 0; j < 20; j++)
                    acc += i ^ j;
            printf("%d\n", acc);
            return 0;
        }
        """
        module = compiled(src)
        baseline = run_local(module.clone())
        outer = LoopInfo(module.function("main")).top_level_loops()[0]
        outline_loop(module, outer, "nest")
        verify_module(module)
        assert run_local(module).output == baseline.output


class TestMemoryUnification:
    def test_heap_allocation_replacement(self):
        src = r"""
        int main() {
            int *p = (int*) malloc(40);
            int *q = (int*) calloc(10, 4);
            p = (int*) realloc(p, 80);
            free(p);
            free(q);
            return 0;
        }
        """
        module = compiled(src)
        replaced = replace_allocation_sites(module)
        assert replaced == 5
        names = {i.called_function.name
                 for i in module.function("main").instructions()
                 if isinstance(i, Call) and i.called_function is not None
                 and not i.called_function.is_definition}
        assert {"u_malloc", "u_calloc", "u_realloc", "u_free"} <= names
        assert "malloc" not in names

    def test_replaced_program_still_runs(self):
        module = compiled(HOT_KERNEL_SRC)
        baseline = run_local(module.clone(), stdin=HOT_KERNEL_STDIN)
        replace_allocation_sites(module)
        verify_module(module)
        assert run_local(module, stdin=HOT_KERNEL_STDIN).output == \
            baseline.output

    def test_referenced_globals_marked(self):
        src = r"""
        int used_by_target;
        int unused_global;
        int target(void) { return used_by_target * 2; }
        int main() { used_by_target = 3; unused_global = 1;
                     return target(); }
        """
        module = compiled(src)
        count = reallocate_referenced_globals(module, ["target"])
        assert count == 1
        assert module.global_("used_by_target").uva_allocated
        assert not module.global_("unused_global").uva_allocated

    def test_fn_ptr_table_global_marked(self):
        src = r"""
        typedef int (*FN)(int);
        int f(int x) { return x; }
        FN table[1] = { f };
        int target(int i) { return table[0](i); }
        int main() { return target(2); }
        """
        module = compiled(src)
        reallocate_referenced_globals(module, ["target"])
        assert module.global_("table").uva_allocated

    def test_functions_a_target_calls_through_a_table_keep_their_globals(
            self):
        """The call graph links every function holding an indirect call
        to every address-taken function, so the table's functions are
        reachable from the target and their globals are UVA."""
        src = r"""
        typedef int (*FN)(int);
        int gf; int gg;
        int f(int x) { return x + gf; }
        int g(int x) { return x * gg; }
        FN table[2] = { f, g };
        int target(int i) { return table[i & 1](i); }
        int main() { gf = 1; gg = 2; return target(2); }
        """
        module = compiled(src)
        reallocate_referenced_globals(module, ["target"])
        assert all(module.global_(name).uva_allocated
                   for name in ("table", "gf", "gg"))

    def test_a_function_only_main_takes_stays_on_the_phone(self):
        """``&f`` taken by ``main`` alone: no target can reach ``f``, so
        it never runs on the server and its global is not UVA."""
        src = r"""
        typedef int (*FN)(int);
        int gf; int used;
        int f(int x) { return x + gf; }
        int target(int x) { return x * used; }
        int main() { FN p = f; gf = 1; used = 2; return p(target(2)); }
        """
        module = compiled(src)
        assert reallocate_referenced_globals(module, ["target"]) == 1
        assert module.global_("used").uva_allocated
        assert not module.global_("gf").uva_allocated

    def test_unified_layout_metadata(self):
        src = r"""
        typedef struct { char c; double d; } S;
        S box;
        int main() { box.c = 1; box.d = 2.0; return 0; }
        """
        module = compiled(src)
        report = unify_memory(module, ARM32, X86, ["main"])
        assert "S" in report.realigned_structs
        server_layout = unified_data_layout(module, X86)
        struct = module.struct("S")
        assert server_layout.struct_layout(struct).offsets == (0, 8)

    def test_conversion_flags(self):
        module = compiled("int main() { return 0; }")
        report = unify_memory(module, ARM32, X86_64, ["main"])
        assert report.needs_pointer_conversion
        assert not report.needs_endianness_translation


class TestPartition:
    def test_stub_structure(self):
        module = compiled(HOT_KERNEL_SRC)
        result = partition(module, ["crunch"])
        mobile = result.mobile_module
        stub = mobile.function("crunch")
        assert [b.name for b in stub.blocks] == ["entry", "offload", "local"]
        assert mobile.function("crunch" + LOCAL_SUFFIX).is_definition
        assert mobile.get_function(SHOULD_OFFLOAD) is not None
        assert mobile.get_function(OFFLOAD_PREFIX + "crunch") is not None
        verify_module(mobile)

    RECURSIVE_SRC = r"""
    typedef int (*FN)(int);
    FN last;
    int fact(int n) {
        last = fact;
        if (n < 2) return 1;
        return n * fact(n - 1);
    }
    FN table[1] = { fact };
    int main() { printf("%d %d\n", fact(5), table[0](4)); return 0; }
    """

    def test_the_stub_takes_the_targets_place(self):
        module = compiled(self.RECURSIVE_SRC)
        before = [i.opcode for i in module.function("fact").instructions()]
        mobile = partition(module, ["fact"]).mobile_module
        stub = mobile.function("fact")
        body = mobile.function("fact" + LOCAL_SUFFIX)
        # the target keeps its name and place; the body is appended
        names = list(mobile.functions)
        assert names.index("fact") == list(module.functions).index("fact")
        assert names[-1] == body.name
        assert [i.called_function.name for i in stub.entry.instructions
                if isinstance(i, Call)] == [SHOULD_OFFLOAD]
        assert [i.opcode for i in body.instructions()] == before
        # only the stub and the body's own recursion call the body
        calls = [(fn.name, i.called_function.name)
                 for fn in mobile.defined_functions()
                 for i in fn.instructions()
                 if isinstance(i, Call) and i.called_function is not None
                 and i.called_function.name.startswith("fact")]
        assert sorted(calls) == [("fact", body.name), (body.name, body.name),
                                 ("main", "fact")]
        # the table, and the address the body stores, still name the
        # target, which is now the stub
        assert repr(mobile.global_("table").initializer) == "agg([&fact])"
        assert [i.value for i in body.instructions()
                if isinstance(i, irinst.Store)
                and i.value.name.startswith("fact")] == [stub]
        verify_module(mobile)

    def test_unused_server_functions_removed(self):
        src = r"""
        int target(int x) { return x * 2; }
        int mobile_only(void) { int v; scanf("%d", &v); return v; }
        int main() { return target(mobile_only()); }
        """
        module = compiled(src)
        result = partition(module, ["target"])
        assert "mobile_only" in result.removed_server_functions
        assert "main" in result.removed_server_functions
        assert result.server_module.get_function("target") is not None

    def test_address_taken_functions_survive_pruning(self):
        src = r"""
        typedef int (*FN)(int);
        int cb(int x) { return -x; }
        FN table[1] = { cb };
        int target(int i) { return table[0](i); }
        int main() { return target(3); }
        """
        module = compiled(src)
        result = partition(module, ["target"])
        assert result.server_module.get_function("cb") is not None

    def test_target_ids_stable(self):
        module = compiled(HOT_KERNEL_SRC)
        result = partition(module, ["crunch"])
        assert result.target_by_id(1).name == "crunch"


class TestServerOptimizations:
    def test_remote_io_rewrites_output_calls(self):
        src = r"""
        int target(int x) { printf("%d\n", x); return x; }
        int main() { return target(1); }
        """
        module = compiled(src)
        count = apply_remote_io(module)
        assert count == 1
        assert module.get_function("r_printf") is not None
        callees = {i.called_function.name
                   for i in module.function("target").instructions()
                   if isinstance(i, Call)
                   and i.called_function is not None}
        assert "r_printf" in callees and "printf" not in callees

    def test_fn_ptr_mapping_inserted_before_indirect_calls(self):
        src = r"""
        typedef int (*FN)(int);
        int f(int x) { return x; }
        FN fp = f;
        int main() { return fp(1); }
        """
        module = compiled(src)
        count = apply_function_pointer_mapping(module)
        assert count == 1
        verify_module(module)
        names = [i.called_function.name
                 for i in module.function("main").instructions()
                 if isinstance(i, Call)
                 and i.called_function is not None]
        assert "__no_m2s_fcn_map" in names

    def test_fn_ptr_store_canonicalized(self):
        src = r"""
        typedef int (*FN)(int);
        int f(int x) { return x; }
        FN slot;
        int main() { slot = f; return 0; }
        """
        module = compiled(src)
        count = apply_function_pointer_mapping(module)
        assert count == 1
        names = [i.called_function.name
                 for i in module.function("main").instructions()
                 if isinstance(i, Call)
                 and i.called_function is not None]
        assert "__no_s2m_fcn_map" in names


class TestPipeline:
    def test_end_to_end_selection(self):
        module = compiled(HOT_KERNEL_SRC)
        profile = profile_module(module, stdin=HOT_KERNEL_STDIN)
        program = NativeOffloaderCompiler(CompilerOptions()).compile(
            module, profile)
        assert program.target_names() == ["crunch"]
        verify_module(program.mobile_module)
        verify_module(program.server_module)

    def test_forced_targets(self):
        module = compiled(HOT_KERNEL_SRC)
        profile = profile_module(module, stdin=HOT_KERNEL_STDIN)
        program = NativeOffloaderCompiler(
            CompilerOptions(forced_targets=["crunch"])).compile(
                module, profile)
        assert program.target_names() == ["crunch"]

    def test_original_module_untouched(self):
        module = compiled(HOT_KERNEL_SRC)
        before = len(module.functions)
        profile = profile_module(module, stdin=HOT_KERNEL_STDIN)
        NativeOffloaderCompiler(CompilerOptions()).compile(module, profile)
        assert len(module.functions) == before
        assert not any(g.uva_allocated for g in module.globals.values())

    def test_statistics_shape(self):
        module = compiled(HOT_KERNEL_SRC)
        profile = profile_module(module, stdin=HOT_KERNEL_STDIN)
        program = NativeOffloaderCompiler(CompilerOptions()).compile(
            module, profile)
        stats = program.statistics()
        assert stats["offloaded_functions"] <= stats["total_functions"]
        assert stats["targets"] == ["crunch"]

    def test_disable_remote_io_changes_selection(self):
        src = r"""
        int kernel(int n) {
            int i, s = 0;
            for (i = 0; i < n; i++) {
                s += i * i;
                if (i % 1000 == 0) printf("%d\n", s);
            }
            return s;
        }
        int main() { printf("%d\n", kernel(4000)); return 0; }
        """
        module = compiled(src)
        profile = profile_module(module)
        with_io = NativeOffloaderCompiler(CompilerOptions()).compile(
            module, profile)
        assert "kernel" in with_io.target_names()
        # without remote I/O (the static-partition baseline's filter)
        # the printf pins the kernel to the phone
        without = FunctionFilter(module, enable_remote_io=False)
        assert not without.is_offloadable("kernel")
