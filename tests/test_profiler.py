"""Tests for the hot function/loop profiler."""

import pytest

from repro.frontend import compile_c
from repro.profiler import profile_module
from repro.profiler import profiler as profiler_module
from repro.workloads import workload

SRC = r"""
int light(int x) { return x + 1; }

int heavy(int n) {
    int i, acc = 0;
    for (i = 0; i < n; i++) acc += light(acc) ^ i;
    return acc;
}

int main() {
    int t, total = 0;
    for (t = 0; t < 3; t++) total += heavy(2000);
    printf("%d\n", total);
    return 0;
}
"""


@pytest.fixture(scope="module")
def prof():
    return profile_module(compile_c(SRC, "prof"))


class TestFunctionProfiles:
    def test_invocation_counts(self, prof):
        assert prof.candidates["main"].invocations == 1
        assert prof.candidates["heavy"].invocations == 3
        assert prof.candidates["light"].invocations == 6000

    def test_inclusive_time_ordering(self, prof):
        main_t = prof.candidates["main"].total_seconds
        heavy_t = prof.candidates["heavy"].total_seconds
        light_t = prof.candidates["light"].total_seconds
        assert main_t >= heavy_t >= light_t > 0

    def test_heavy_dominates_program(self, prof):
        assert prof.coverage_of("heavy") > 0.9

    def test_program_time_positive(self, prof):
        assert prof.program_seconds > 0
        assert prof.candidates["main"].total_seconds == pytest.approx(
            prof.program_seconds, rel=0.05)


class TestLoopProfiles:
    def test_loops_discovered(self, prof):
        loops = {c.name for c in prof.loops()}
        assert any(name.startswith("heavy_for.cond") for name in loops)
        assert any(name.startswith("main_for.cond") for name in loops)

    def test_loop_invocations_count_entries_not_iterations(self, prof):
        heavy_loop = next(c for c in prof.loops()
                          if c.name.startswith("heavy_for"))
        assert heavy_loop.invocations == 3   # entered once per heavy() call

    def test_loop_time_included_in_function(self, prof):
        heavy_loop = next(c for c in prof.loops()
                          if c.name.startswith("heavy_for"))
        heavy_fn = prof.candidates["heavy"]
        assert heavy_loop.total_seconds <= heavy_fn.total_seconds * 1.001

    def test_loop_includes_callee_time(self, prof):
        heavy_loop = next(c for c in prof.loops()
                          if c.name.startswith("heavy_for"))
        light_fn = prof.candidates["light"]
        assert heavy_loop.total_seconds > light_fn.total_seconds * 0.9


class TestMemoryAttribution:
    def test_touched_pages_recorded(self, prof):
        assert prof.candidates["heavy"].memory_bytes > 0

    def test_heap_pages_attributed(self):
        src = r"""
        int *buf;
        int walk(void) {
            int i, s = 0;
            for (i = 0; i < 16384; i++) s += buf[i];
            return s;
        }
        int main() {
            int i;
            buf = (int*) malloc(16384 * sizeof(int));
            for (i = 0; i < 16384; i++) buf[i] = i;
            printf("%d\n", walk());
            return 0;
        }
        """
        prof = profile_module(compile_c(src, "mem"))
        # walk touches 64 KiB of heap -> at least 16 pages
        assert prof.candidates["walk"].memory_bytes >= 16384 * 4


class TestRecursion:
    def test_recursive_function_not_double_counted(self):
        src = r"""
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main() { printf("%d\n", fib(14)); return 0; }
        """
        prof = profile_module(compile_c(src, "rec"))
        fib = prof.candidates["fib"]
        assert fib.invocations > 100
        # inclusive time of the outermost activation only
        assert fib.total_seconds <= prof.program_seconds * 1.001

    def test_loop_in_recursive_function_not_double_counted(self):
        src = r"""
        int walk(int depth) {
            int i, acc = 0;
            for (i = 0; i < 10; i++) {
                acc += i;
                if (i == 5 && depth > 0) acc += walk(depth - 1);
            }
            return acc;
        }
        int main() { printf("%d\n", walk(6)); return 0; }
        """
        prof = profile_module(compile_c(src, "recloop"))
        loop = next(c for c in prof.loops()
                    if c.name.startswith("walk_for"))
        assert loop.total_seconds <= prof.program_seconds * 1.001


def test_stdout_and_exit_code_captured(prof):
    assert prof.output.exit_code == 0
    assert prof.output.stdout.strip().lstrip(b"-").isdigit()


def test_hottest_is_sorted(prof):
    hottest = prof.hottest(5)
    times = [c.total_seconds for c in hottest]
    assert times == sorted(times, reverse=True)


# -- goldens ------------------------------------------------------------------
# Captured at the last commit whose profiler updated every live frame's
# and loop's page set on every access, *before* the scope stack replaced
# that: any way of attributing pages must give the same inclusive sets,
# and the same invocation counts and times, bit for bit.

# Direct recursion with a loop around the recursive call and a frame big
# enough to reach five stack pages (deep), plain and mutual recursion
# (fact, is_even/is_odd), a loop nest whose inner loop calls a function
# with its own loop (grid -> row_sum), a heap buffer only a callee touches
# (fill), memset/memcpy across four pages (blit), and exit() from a loop
# nest two calls down (bail).
SCOPES_SRC = r"""
int *heap;
char big[12400];
char copy[12400];

int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }

int deep(int n) {
    int pad[600], i, s = 0;
    for (i = 0; i < 2; i++) {
        pad[i * 299 + n] = n + i;
        if (i == 1 && n > 0) s += deep(n - 1);
        s += pad[i * 299 + n];
    }
    return s;
}

int is_odd(int n);
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }

int row_sum(int *row, int n) {
    int j, s = 0;
    for (j = 0; j < n; j++) s += row[j];
    return s;
}

int grid(int *cells, int rows, int cols) {
    int r, c, total = 0;
    for (r = 0; r < rows; r++)
        for (c = 0; c < cols; c += 4)
            total += row_sum(cells + r * cols + c, 4);
    return total;
}

void fill(int n) {
    int i;
    for (i = 0; i < n; i++) heap[i] = i * 3;
}

int blit(void) {
    memset(big, 7, 12400);
    memcpy(copy, big, 12400);
    return copy[12399];
}

void bail(int depth, int acc) {
    int i, j;
    if (depth > 0) { bail(depth - 1, acc + depth); return; }
    for (i = 0; i < 5; i++)
        for (j = 0; j < 5; j++) {
            acc += i * j + fact(3);
            if (i == 3 && j == 2) exit(acc & 127);
        }
}

int main() {
    int t, acc = 0;
    heap = (int*) malloc(5000 * sizeof(int));
    fill(5000);
    for (t = 0; t < 3; t++) {
        acc += fact(6 + t);
        acc += deep(2 + 2 * t);
        acc += is_even(9 + t);
        acc += grid(heap + 1024 * t, 4, 16);
    }
    acc += blit();
    printf("%d\n", acc);
    while (acc) { bail(2, acc); acc--; }
    return 0;
}
"""


def _golden_program(name):
    if name == "scopes":
        return compile_c(SCOPES_SRC, "scopes"), b"", None
    spec = workload(name)
    return spec.module(), spec.profile_stdin, spec.profile_files


# program -> candidate -> (invocations, total_seconds.hex(),
#                          sorted pages_touched)
PROFILE_GOLDEN = {
    "scopes": {
        "bail": (3, "0x1.9748a046a0bd1p-14", [524031]),
        "bail_for.cond3": (1, "0x1.870b19052c064p-14", [524031]),
        "bail_for.cond7": (4, "0x1.7a1ff9111ad1ep-14", [524031]),
        "blit": (1, "0x1.7ade0674d2ff8p-12",
            [256, 257, 258, 259, 260, 261, 262]),
        "deep": (15, "0x1.05b30c20389e7p-13",
            [524027, 524028, 524029, 524030, 524031]),
        "deep_for.cond1": (15, "0x1.ff854204ee628p-14",
            [524027, 524028, 524029, 524030, 524031]),
        "fact": (75, "0x1.2a43edb7f6486p-14", [524031]),
        "fill": (1, "0x1.cd6f2b7e5567ep-8",
            [256, 4096, 4097, 4098, 4099, 4100, 524031]),
        "fill_for.cond1": (1, "0x1.cd65a3f3baa25p-8",
            [256, 4096, 4097, 4098, 4099, 4100, 524031]),
        "grid": (3, "0x1.f1c7adff01526p-12", [4096, 4097, 4098, 524031]),
        "grid_for.cond1": (3, "0x1.ededfc13d99e1p-12",
            [4096, 4097, 4098, 524031]),
        "grid_for.cond5": (12, "0x1.e043bbdb51b99p-12",
            [4096, 4097, 4098, 524031]),
        "is_even": (17, "0x1.f1ade8ed25182p-16", [524031]),
        "is_odd": (16, "0x1.c2c52e6a430c4p-16", [524031]),
        "main": (1, "0x1.0b8a88ebb2a74p-7",
            [256, 257, 258, 259, 260, 261, 262, 4096, 4097, 4098, 4099, 4100,
             524027, 524028, 524029, 524030, 524031]),
        "main_for.cond1": (1, "0x1.5ac4add5a1eecp-11",
            [256, 4096, 4097, 4098, 524027, 524028, 524029, 524030, 524031]),
        "main_while.cond5": (1, "0x1.99a1ebe75e0c7p-14", [524031]),
        "row_sum": (48, "0x1.77e0728239bcfp-12", [4096, 4097, 4098, 524031]),
        "row_sum_for.cond1": (48, "0x1.44f0ed34ee96cp-12",
            [4096, 4097, 4098, 524031]),
    },
    "chess": {
        "c_rand": (208, "0x1.315867a022497p-13", [256]),
        "evalBishop": (200, "0x1.5dce11706acd7p-11", [524031]),
        "evalEmpty": (786, "0x1.07bce2c9e437cp-13", []),
        "evalKing": (112, "0x1.5aaf3446bfbe9p-13", [524031]),
        "evalKnight": (174, "0x1.ff6b7cf312275p-12", [524031]),
        "evalPawn": (180, "0x1.1695ee9447cbbp-12", [524031]),
        "evalQueen": (116, "0x1.376297cfbff0fp-16", []),
        "evalRook": (160, "0x1.ad7f29abcaf2fp-16", []),
        "getAITurn": (1, "0x1.6397eeb873be3p-7", [256, 4096, 524031]),
        "getAITurn_for.cond1": (1, "0x1.6388d53ffcb41p-7",
            [256, 4096, 524031]),
        "getPlayerTurn": (1, "0x1.9f004f9fea2f8p-19", [524031]),
        "main": (1, "0x1.6f23a449f6c41p-7", [256, 4096, 524031]),
        "main_for.cond1": (1, "0x1.5987ecda19a2ap-12", [256, 4096, 524031]),
        "positionScore": (27, "0x1.42e738e75acb4p-7", [256, 4096, 524031]),
        "positionScore_for.cond1": (27, "0x1.4215f17b4f4e2p-7",
            [256, 4096, 524031]),
        "runGame": (1, "0x1.6438529b9d18cp-7", [256, 4096, 524031]),
        "runGame_for.cond1": (1, "0x1.64318b70ea817p-7", [256, 4096, 524031]),
        "searchMove": (52, "0x1.62afbc5f86114p-7", [256, 4096, 524031]),
        "searchMove_for.cond3": (25, "0x1.62793e51c1b61p-7",
            [256, 4096, 524031]),
        "updateBoard": (2, "0x1.290619dbaf79ep-17", [256, 4096, 524031]),
    },
    "462.libquantum": {
        "main": (1, "0x1.5841c6b00e615p-5", [524031]),
        "mulmod": (858, "0x1.45ecaf7c6b1b4p-5", [524031]),
        "mulmod_while.cond1": (858, "0x1.3e795e2103c1dp-5", [524031]),
        "quantum_exp_mod_n": (1, "0x1.583a71c9798ecp-5", [524031]),
        "quantum_exp_mod_n_for.cond1": (1, "0x1.58373b4cff848p-5", [524031]),
        "quantum_exp_mod_n_for.cond7": (25, "0x1.575e42a2df350p-5", [524031]),
    },
}


@pytest.mark.parametrize("program", sorted(PROFILE_GOLDEN))
def test_profile_is_bit_identical(program, monkeypatch):
    made = []

    class Capturing(profiler_module.ProfilingObserver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(profiler_module, "ProfilingObserver", Capturing)
    module, stdin, files = _golden_program(program)
    prof = profile_module(module, stdin=stdin, files=files)
    assert {name: (c.invocations, c.total_seconds.hex(),
                   sorted(c.pages_touched))
            for name, c in prof.candidates.items()} == PROFILE_GOLDEN[program]
    # every scope was popped, exit() unwinds included
    (observer,) = made
    assert observer._touch_scopes == [] and observer._frames == []
    if program == "scopes":
        assert prof.output.exit_code == 81
        assert prof.output.stdout == b"654139\n"
