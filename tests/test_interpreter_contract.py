"""The interpreter's accounting contract.

Everything the rest of the stack reports is derived from three numbers
the interpreter keeps — ``instruction_count``, ``cycles`` and the two
translation counters on the machine — and from the order and arguments
of the observer hooks.  The goldens below were captured at the last
commit that ran the per-instruction dispatch loop, *before* the
decode-once interpreter replaced it; they pin that any way of executing
IR produces the same numbers bit for bit (``cycles`` is a running sum of
non-dyadic floats, so even the order of the additions is part of the
contract).
"""

import gc
import hashlib
import weakref

import pytest

from repro.frontend import compile_c
from repro.ir import (Function, FunctionType, IRBuilder, Module, I1, I32)
from repro.machine import (ExecutionLimitExceeded, Interpreter,
                           InterpreterError, boot)
from repro.machine.fs import IOEnvironment
from repro.profiler import profile_module
from repro.profiler import profiler as profiler_module
from repro.runtime import local as local_module, run_local
from repro.targets import (ARM32, MIPS32BE, PRESETS, UNIFIED_ORDER_KEY,
                           UNIFIED_POINTER_KEY, X86_64)
from repro.workloads import workload

from conftest import interp_for

# The Figure 4 Move/Packet struct kernel (examples/cross_architecture.py).
LAYOUTS_SRC = r"""
typedef struct { char from, to; double score; } Move;
typedef struct { char tag; void *payload; int len; } Packet;

Move *moves;
int nmoves;

double total_score(void) {
    double s = 0.0;
    int i;
    for (i = 0; i < nmoves; i++) s += moves[i].score;
    return s;
}

int main() {
    int i;
    scanf("%d", &nmoves);
    moves = (Move*) malloc(nmoves * sizeof(Move));
    for (i = 0; i < nmoves; i++) {
        moves[i].from = (char)i;
        moves[i].to = (char)(i + 1);
        moves[i].score = i * 0.5;
    }
    printf("total %.1f\n", total_score());
    return 0;
}
"""


def _program(name):
    """(source, stdin, files): the registry's profiling input, which is
    the smaller one, for the two registry programs."""
    if name == "layouts":
        return LAYOUTS_SRC, b"2000\n", None
    spec = workload(name)
    return spec.source, spec.profile_stdin, spec.profile_files


def _accounting(interp):
    machine = interp.machine
    return (interp.instruction_count, interp.cycles.hex(),
            machine.pointer_conversions, machine.endian_swaps)


# (program, preset) -> (instruction_count, cycles.hex(),
#                       pointer_conversions, endian_swaps)
RUN_LOCAL_GOLDEN = {
    ("chess", "arm32"): (108640, "0x1.ab69f80000000p+24", 0, 0),
    ("chess", "arm64"): (108640, "0x1.7e71820000000p+24", 0, 0),
    ("chess", "x86_64"): (108640, "0x1.a2a1740000000p+22", 0, 0),
    ("chess", "x86"): (108640, "0x1.a29e2c0000000p+22", 0, 0),
    ("chess", "mips32be"): (108640, "0x1.ab69f80000000p+24", 0, 0),
    ("462.libquantum", "arm32"): (319893, "0x1.90c50d0000000p+26", 0, 0),
    ("462.libquantum", "arm64"): (319893, "0x1.4e15cd0000000p+26", 0, 0),
    ("462.libquantum", "x86_64"): (319893, "0x1.8b478b0000000p+24", 0, 0),
    ("462.libquantum", "x86"): (319893, "0x1.8b478b0000000p+24", 0, 0),
    ("462.libquantum", "mips32be"): (319893, "0x1.90c50d0000000p+26", 0, 0),
    ("layouts", "arm32"): (106032, "0x1.5eddcc0000000p+24", 0, 0),
    ("layouts", "arm64"): (106032, "0x1.41dd260000000p+24", 0, 0),
    ("layouts", "x86_64"): (106032, "0x1.573be40000000p+22", 0, 0),
    ("layouts", "x86"): (106032, "0x1.573be40000000p+22", 0, 0),
    ("layouts", "mips32be"): (106032, "0x1.5eddcc0000000p+24", 0, 0),
}


@pytest.mark.parametrize("program,arch_name", sorted(RUN_LOCAL_GOLDEN))
def test_run_local_accounting_is_bit_identical(program, arch_name,
                                               monkeypatch):
    made = []

    class Capturing(Interpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(local_module, "Interpreter", Capturing)
    arch = PRESETS[arch_name]
    source, stdin, files = _program(program)
    module = compile_c(source, program, target=arch)
    result = run_local(module, arch=arch, stdin=stdin, files=files)
    (interp,) = made
    assert result.instructions == interp.instruction_count
    assert _accounting(interp) == RUN_LOCAL_GOLDEN[program, arch_name]


def test_every_preset_has_a_golden():
    assert {arch for _, arch in RUN_LOCAL_GOLDEN} == set(PRESETS)


# The Figure 4 kernel compiled for big-endian MIPS32 and run on an x86-64
# machine under the MIPS layout: every pointer access converts and every
# multi-byte access swaps, the way a server runs a unified module.
TRANSLATED_GOLDEN = (106032, "0x1.b2ce500000000p+22", 8001, 46010)


def test_translated_layout_accounting_is_bit_identical():
    module = compile_c(LAYOUTS_SRC, "layouts", target=MIPS32BE)
    module.metadata.update({UNIFIED_POINTER_KEY: 4, UNIFIED_ORDER_KEY: "big"})
    machine = boot(module, X86_64, "server", IOEnvironment(stdin=b"2000\n"))
    interp = Interpreter(machine)
    assert interp.run_main() == 0
    assert machine.io.stdout == b"total 999500.0\n"
    assert machine.pointer_conversions > 0 and machine.endian_swaps > 0
    assert _accounting(interp) == TRANSLATED_GOLDEN


# (sha256 of the stream, number of hook calls)
OBSERVER_STREAM_GOLDEN = (
    "6782b1a5668f5c2aa2f0eccdc47020c24ef3829242211346b1c44b31d14ef056",
    18750)
# the same with the profiler's own ``watched``: the blocks where the
# innermost loop can change
PROFILER_STREAM_GOLDEN = (
    "a312023f033f6990d6d49dddd9263ad347d0cfec4049b5d859565d90a9edb745",
    6049)


def _chess_call_stream(monkeypatch, watch_all: bool) -> tuple:
    """Every hook a profiled chess run calls, in order, with its
    arguments: function and block hooks carry ``cycles`` as of the
    call."""
    digest = hashlib.sha256()
    calls = [0]

    def record(*fields):
        calls[0] += 1
        digest.update(repr(fields).encode())

    class Recording(profiler_module.ProfilingObserver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if watch_all:
                self.watched = None

        def enter_function(self, fn, cycles):
            record("enter_function", fn.name, cycles.hex())
            super().enter_function(fn, cycles)

        def exit_function(self, fn, cycles):
            record("exit_function", fn.name, cycles.hex())
            super().exit_function(fn, cycles)

        def enter_block(self, block, cycles):
            record("enter_block", block.parent.name, block.name,
                   cycles.hex())
            super().enter_block(block, cycles)

    monkeypatch.setattr(profiler_module, "ProfilingObserver", Recording)
    source, stdin, files = _program("chess")
    profile_module(compile_c(source, "chess"), stdin=stdin, files=files)
    return digest.hexdigest(), calls[0]


def test_observer_call_stream_is_bit_identical(monkeypatch):
    """An observer that watches every block (``watched`` None) sees every
    hook the interpreter calls."""
    assert _chess_call_stream(monkeypatch, True) == OBSERVER_STREAM_GOLDEN


def test_profiler_call_stream_is_bit_identical(monkeypatch):
    assert _chess_call_stream(monkeypatch, False) == PROFILER_STREAM_GOLDEN


MID_BLOCK_SRC = """
int probe(int x);
int main() { int a = 3; a = a * 7 + probe(a); a += 2; return a; }
"""
# instruction_count and cycles as a builtin called mid-block sees them
MID_BLOCK_GOLDEN = (7, "0x1.20c0000000000p+11")


class _Unwind(BaseException):
    """Stands in for fleet replay's SegmentBoundary: a BaseException
    raised from inside a builtin."""


@pytest.mark.parametrize("unwind", [False, True])
def test_accounting_is_current_inside_a_builtin_mid_block(unwind):
    interp = interp_for(MID_BLOCK_SRC)
    machine = interp.machine
    seen = []

    def probe(interp, args):
        seen.append((interp.instruction_count, interp.cycles.hex()))
        if unwind:
            raise _Unwind()
        return 5

    machine.register_builtin("probe", probe)
    if unwind:
        with pytest.raises(_Unwind):
            interp.run_main()
        # the instructions after the call never started
        assert (interp.instruction_count,
                interp.cycles.hex()) == MID_BLOCK_GOLDEN
        assert interp.call_depth == 0 and interp.sp == machine.stack_top
    else:
        assert interp.run_main() == 28
        assert (interp.instruction_count,
                interp.cycles.hex()) == (14, "0x1.e8c0000000000p+11")
    assert seen == [MID_BLOCK_GOLDEN]


EXIT_SRC = """
int main() {
    int i, s = 0;
    for (i = 0; i < 10; i++) { s += i; if (s > 20) { exit(s); s = 99; } }
    return s;
}
"""
EXIT_GOLDEN = (108, "0x1.8010000000000p+14")


def test_exit_mid_block_leaves_exact_accounting():
    interp = interp_for(EXIT_SRC)
    assert interp.run_main() == 21
    assert (interp.instruction_count, interp.cycles.hex()) == EXIT_GOLDEN


LIMIT_SRC = """
int main() {
    int i, s = 0;
    for (i = 0; i < 1000; i++) { s += i * 3; s ^= i; s += 7; }
    return s;
}
"""
# N -> cycles.hex() when the limit fires.  Instruction N + 1 is, in turn,
# a conditional branch, the first instruction of the loop body, one in
# the middle of it, and its closing branch.
LIMIT_GOLDEN = {
    46: "0x1.4fa0000000000p+13",
    47: "0x1.58b0000000000p+13",
    50: "0x1.6bc0000000000p+13",
    58: "0x1.a450000000000p+13",
}


@pytest.mark.parametrize("limit", sorted(LIMIT_GOLDEN))
def test_execution_limit_fires_at_the_same_instruction(limit):
    interp = interp_for(LIMIT_SRC)
    interp.max_instructions = limit
    with pytest.raises(ExecutionLimitExceeded,
                       match=f"exceeded {limit} instructions"):
        interp.run_main()
    assert interp.instruction_count == limit + 1
    assert interp.cycles.hex() == LIMIT_GOLDEN[limit]


def _non_dominating_use(take_defining_path):
    """``f(c)``: ``left`` defines %v, ``right`` does not, ``join`` uses
    it.  The verifier accepts this (it does not check dominance), so the
    use is a run-time check."""
    module = Module()
    fn = Function("f", FunctionType(I32, [I1]), ["c"])
    module.add_function(fn)
    entry, left, right, join = (fn.add_block(name) for name in
                                ("entry", "left", "right", "join"))
    IRBuilder(entry).condbr(fn.args[0], left, right)
    b = IRBuilder(left)
    value = b.binop("add", b.i32(40), b.i32(2))
    b.br(join)
    IRBuilder(right).br(join)
    IRBuilder(join).ret(value)
    return Interpreter(boot(module, ARM32)).call_by_name(
        "f", [1 if take_defining_path else 0])


def test_use_of_undefined_value_is_still_caught():
    assert _non_dominating_use(True) == 42
    with pytest.raises(InterpreterError, match="use of undefined value"):
        _non_dominating_use(False)


def test_dropped_interpreter_is_freed_by_refcounting():
    """An interpreter and whatever it cached per function must not form a
    reference cycle: one is made per profile, local run, session, server
    invocation and replay, and a cycle keeps each alive until a
    generation-2 collection."""
    gc.collect()
    gc.disable()
    try:
        interp = interp_for(LIMIT_SRC)
        interp.run_main()
        ref = weakref.ref(interp)
        del interp
        assert ref() is None
    finally:
        gc.enable()
