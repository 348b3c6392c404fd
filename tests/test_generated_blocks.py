"""The generated-block executor, beside the accounting goldens.

``tests/test_interpreter_contract.py`` pins what a run reports.  This
file pins how the interpreter gets there now that a basic block is one
generated Python function (docs/architecture.md, "Interpreter: decode
once, then run generated blocks"): the count and cycles are exact
whichever instruction of a block a run unwinds from — also across an
unconditional branch a stretch runs on through — malformed IR is
reported when it is reached, blocks are compiled lazily and shared by
text through one bounded cache, and nothing generated keeps an
interpreter — or anything but code — alive.
"""

import functools
import gc
import os
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path
from typing import Iterable, List, Optional

import pytest

import repro
from repro.analysis.callgraph import CallGraph
from repro.fleet import (FleetScheduler, PoolOptions, ServerPool,
                         identical_devices)
from repro.frontend import compile_c
from repro.fleet.replay import SegmentBoundary
from repro.ir import (Constant, F64, Function, FunctionType, I1, I32,
                      Instruction, IRBuilder, Module, StructType, VOID, ptr)
from repro.ir.instructions import BinOp
from repro.machine import (AddressSpace, ExecutionLimitExceeded, ExitProgram,
                           Interpreter, InterpreterError, Machine, Observer,
                           SegmentationFault, boot)
from repro.machine import interpreter as interpreter_module
from repro.machine.fs import IOEnvironment
from repro.offload import CompilerOptions
from repro.profiler import ProfilingObserver
from repro.runtime import FAST_WIFI, run_local
from repro.targets import (ARM32, UNIFIED_LAYOUTS_KEY, UNIFIED_ORDER_KEY,
                           UNIFIED_POINTER_KEY, X86_64, TargetArch)
from repro.workloads import WORKLOADS, workload

from conftest import HOT_KERNEL_SRC, HOT_KERNEL_STDIN, build_c


# -- unwinding from every position of a block --------------------------------

#: Ends the classes of a program whose last listed instruction raises.
RAISES = "raises"
# ``asm`` is one line of code, as a ``br`` that runs on is
ORDINARY = ["store", "load", "asm", "udiv", "call", "external", "add"]
RAISING = {
    "udiv by zero": InterpreterError,
    "fptosi of infinity": InterpreterError,
    "segfault": SegmentationFault,
    "exit": ExitProgram,
    "boundary": SegmentBoundary,
}


def _program(kinds, split=False):
    """A module whose ``main`` is one block: an ``alloca``, one
    instruction per kind and a ``ret``; ``split``, one more block per
    kind, each entered by a ``br`` that ends the one before.  Returns it
    with the cost class of every instruction a run executes, in
    execution order — a direct call is the ``call`` and then its
    callee's instructions — with ``RAISES`` behind an instruction that
    does not complete: nothing listed after it runs."""
    module = Module()
    helper = module.add_function(
        Function("helper", FunctionType(I32, [I32]), ["x"]))
    b = IRBuilder(helper.add_block("entry"))
    b.ret(b.add(helper.args[0], b.i32(1)))
    probe = module.declare_function("probe", FunctionType(I32, [I32]))
    stop = module.declare_function("stop", FunctionType(I32, [I32]))
    # deep3 -> deep2 -> deep1 -> exit(): three guest frames below main
    deep = module.declare_function("exit", FunctionType(VOID, [I32]))
    for depth in (1, 2, 3):
        fn = module.add_function(
            Function(f"deep{depth}", FunctionType(VOID, [I32]), ["x"]))
        b = IRBuilder(fn.add_block("entry"))
        b.call(deep, [fn.args[0]])
        b.ret()
        deep = fn
    main = module.add_function(Function("main", FunctionType(I32, [])))
    b = IRBuilder(main.add_block("entry"))
    slot, value = b.alloca(I32), b.i32(40)
    classes = ["alu"]
    for position, kind in enumerate(kinds):
        if split:
            block = main.add_block(f"kind{position}")
            b.br(block)
            b = IRBuilder(block)
            classes += ["branch"]
        if kind == "store":
            b.store(value, slot)
            classes += ["mem"]
        elif kind == "load":
            value = b.load(slot)
            classes += ["mem"]
        elif kind == "udiv":
            value = b.binop("udiv", value, b.i32(3))
            classes += ["div"]
        elif kind == "add":
            value = b.add(value, b.i32(5))
            classes += ["alu"]
        elif kind == "asm":
            b.asm("nop")
            classes += ["alu"]
        elif kind == "call":
            value = b.call(helper, [value])
            classes += ["call", "alu", "branch"]
        elif kind == "external":
            value = b.call(probe, [value])
            classes += ["call"]
        elif kind == "udiv by zero":
            b.binop("udiv", value, b.i32(0))
            classes += ["div", RAISES]
        elif kind == "fptosi of infinity":
            b.fptosi(Constant(F64, float("inf")), I32)
            classes += ["alu", RAISES]
        elif kind == "segfault":  # page 0 is unmapped: the slow path
            b.load(Constant(ptr(I32), 64))
            classes += ["mem", RAISES]
        elif kind == "exit":
            b.call(deep, [value])
            classes += ["call"] * 4 + [RAISES]
        elif kind == "boundary":
            b.call(stop, [value])
            classes += ["call", RAISES]
        else:
            raise AssertionError(kind)
    b.ret(value)
    return module, classes + ["branch"]


def _stop(interp, args):
    raise SegmentBoundary("target", 0.0)


def _interp(module, block_observer=False):
    machine = boot(module, ARM32)
    machine.register_builtin("probe", lambda interp, args: args[0])
    machine.register_builtin("stop", _stop)
    return Interpreter(machine,
                       observer=Observer() if block_observer else None)


def _reference(interp, classes):
    """``cycles`` once 0, 1, 2, … instructions have been charged: a sum
    kept here, one add per instruction in execution order, over the
    interpreter's cost table."""
    cycles = 0.0
    cycles += interp._cycle_table["call"]  # run_main's call of main
    sums = [cycles]
    for name in classes:
        if name is RAISES:
            break
        cycles += interp._cycle_table[name]
        sums.append(cycles)
    return sums


def _unwound(interp):
    return interp.call_depth == 0 and interp.sp == interp.machine.stack_top


def _runs_on(interp, fn):
    """Whether a stretch of ``fn`` runs on into another block."""
    decoder = interpreter_module._Decoder(interp, fn)
    return any(len(decoder.chain(index)) > 1
               for index in range(len(decoder.stretches)))


@pytest.mark.parametrize("split", [False, True], ids=["one-block", "split"])
@pytest.mark.parametrize("block_observer", [False, True])
def test_limit_fires_exactly_at_every_instruction_of_a_block(
        block_observer, split):
    """Split, ``main``'s stretches run on through every ``br`` without a
    block observer; ``Observer()`` watches every block, so none does."""
    module, classes = _program(ORDINARY, split)
    sums = _reference(_interp(module), classes)
    assert len(classes) == 11 + 7 * split

    interp = _interp(module, block_observer)
    assert interp.run_main() == (40 // 3 + 1) + 5
    assert (interp.instruction_count, interp.cycles.hex()) == (
        len(classes), sums[-1].hex())
    assert _runs_on(interp, module.function("main")) == (
        split and not block_observer)

    for limit in range(len(classes)):
        interp = _interp(module, block_observer)
        interp.max_instructions = limit
        with pytest.raises(ExecutionLimitExceeded,
                           match=f"exceeded {limit} instructions"):
            interp.run_main()
        # instruction ``limit + 1`` is counted and charged nothing
        assert (interp.instruction_count, interp.cycles.hex()) == (
            limit + 1, sums[limit].hex()), limit
        assert _unwound(interp)


@pytest.mark.parametrize("split", [False, True], ids=["one-block", "split"])
@pytest.mark.parametrize("block_observer", [False, True])
@pytest.mark.parametrize("raising", sorted(RAISING))
def test_whatever_unwinds_a_block_leaves_exact_accounting(
        raising, block_observer, split):
    for position in range(len(ORDINARY) + 1):
        kinds = ORDINARY[:position] + [raising] + ORDINARY[position:]
        module, classes = _program(kinds, split)
        interp = _interp(module, block_observer)
        sums = _reference(interp, classes)
        with pytest.raises(RAISING[raising]):
            interp.call_function(module.function("main"), [])
        # every instruction that started is counted and charged, the
        # raising one included; none after it is
        assert (interp.instruction_count, interp.cycles.hex()) == (
            len(sums) - 1, sums[-1].hex()), position
        assert _unwound(interp)


def _counting_loop():
    """``main`` counts ``i`` to 3: ``cond`` branches to ``body`` or
    ``done``, and ``body``, ``mid`` and ``tail`` are joined by ``br``s,
    ``tail``'s back to ``cond``."""
    module = Module()
    main = module.add_function(Function("main", FunctionType(I32, [])))
    entry, cond, body, mid, tail, done = (main.add_block(name) for name in (
        "entry", "cond", "body", "mid", "tail", "done"))
    b = IRBuilder(entry)
    i = b.alloca(I32)
    b.store(b.i32(0), i)
    b.br(cond)
    b = IRBuilder(cond)
    b.condbr(b.cmp("slt", b.load(i), b.i32(3)), body, done)
    IRBuilder(body).br(mid)
    b = IRBuilder(mid)
    b.store(b.add(b.load(i), b.i32(1)), i)
    b.br(tail)
    IRBuilder(tail).br(cond)
    b = IRBuilder(done)
    b.ret(b.load(i))
    return module


class _Entries(Observer):
    def __init__(self, watched):
        self.watched = watched
        self.entries = []

    def enter_block(self, block, cycles):
        self.entries.append((block.name, cycles.hex()))


def test_a_watched_br_target_still_fires():
    """A stretch does not run on into a block its observer watches: the
    observer is told of every entry of ``mid``, with the cycles an
    observer of every block sees, while ``body``'s stretch stops at it
    and ``mid``'s runs on through ``tail`` into ``cond``."""
    runs = []
    for watch_all in (True, False):
        module = _counting_loop()
        mid = module.function("main").blocks[3]
        observer = _Entries(None if watch_all else {mid})
        interp = Interpreter(boot(module, ARM32), observer=observer)
        assert interp.run_main() == 3
        runs.append((interp, observer.entries))
    (every, all_entries), (one, mid_entries) = runs
    assert (one.instruction_count, one.cycles.hex()) == (
        every.instruction_count, every.cycles.hex())
    assert mid_entries == [entry for entry in all_entries
                           if entry[0] == "mid"]
    assert len(mid_entries) == 3
    decoder = interpreter_module._Decoder(one, module.function("main"))
    assert [[decoder.stretches[part][0].name for part in decoder.chain(index)]
            for index in range(len(decoder.stretches))] == [
        ["entry", "cond"], ["cond"], ["body"], ["mid", "tail", "cond"],
        ["tail", "cond"], ["done"]]


def test_a_raising_line_maps_to_its_instruction_beyond_255():
    """One byte per line cannot number the instructions of a block this
    long (the mini-C of tests/test_stdio_equivalence.py has one)."""
    module, classes = _program(["add"] * 280 + ["udiv by zero"]
                               + ["add"] * 40)
    interp = _interp(module)
    sums = _reference(interp, classes)
    with pytest.raises(InterpreterError, match="integer division by zero"):
        interp.run_main()
    assert (interp.instruction_count, interp.cycles.hex()) == (
        282, sums[-1].hex())


# -- running on changes nothing simulated, over the registry -----------------

def _observed_run(module, arch: TargetArch, stdin: bytes, files,
                  observer: Optional[Observer]) -> tuple:
    machine = boot(module, arch, io=IOEnvironment(files=files, stdin=stdin))
    interp = Interpreter(machine, observer=observer)
    exit_code = interp.run_main()
    return (bytes(machine.io.stdout), exit_code, interp.instruction_count,
            interp.cycles.hex(), machine.pointer_conversions,
            machine.endian_swaps)


def run_on_differential(arch: TargetArch,
                        names: Optional[Iterable[str]] = None) -> List[str]:
    """Runs every registry program (or those ``names``) on its profiling
    input on ``arch`` with no observer, whose stretches run on through
    every ``br``, and with ``Observer()``, which watches every block so
    none does; asserts stdout, exit code, instruction count, cycles and
    the translation counters agree.  Returns what it ran."""
    ran = []
    for name in WORKLOADS if names is None else names:
        spec = WORKLOADS[name]
        inputs = spec.profile_stdin, spec.profile_files
        # each run its own clone, so neither can reuse the other's code
        assert (_observed_run(spec.module(arch), arch, *inputs, None) ==
                _observed_run(spec.module(arch), arch, *inputs,
                              Observer())), name
        ran.append(name)
    return ran


def test_running_on_changes_nothing_simulated():
    assert run_on_differential(ARM32) == list(WORKLOADS)


# -- malformed IR is reported if and when it is reached ----------------------

class _Frobnicate(Instruction):
    opcode = "frobnicate"


def _malformed(what):
    """``f(c)``: the ``bad`` block is malformed in the way ``what`` names;
    ``c`` decides whether it is reached."""
    module = Module()
    fn = module.add_function(Function("f", FunctionType(I32, [I1]), ["c"]))
    entry, bad, good = (fn.add_block(name)
                        for name in ("entry", "bad", "good"))
    IRBuilder(entry).condbr(fn.args[0], bad, good)
    IRBuilder(good).ret(Constant(I32, 7))
    b = IRBuilder(bad)
    if what == "unknown opcode":
        bad.append(_Frobnicate(VOID, []))
        b.ret(b.i32(0))
    elif what == "unreachable":
        b.unreachable()
    elif what == "fell through":
        b.add(b.i32(1), b.i32(2))
    elif what == "aggregate access":
        b.load(Constant(ptr(StructType("pair", [("a", I32), ("b", I32)])),
                        64))
        b.ret(b.i32(0))
    else:
        raise AssertionError(what)
    return Interpreter(boot(module, ARM32)), fn


@pytest.mark.parametrize("what,message", [
    ("unknown opcode", "unknown opcode frobnicate"),
    ("unreachable", "reached unreachable in f"),
    ("fell through", "block bad in f fell through"),
    ("aggregate access", "aggregate access of"),
])
def test_malformed_ir_raises_when_reached_and_only_then(what, message):
    interp, fn = _malformed(what)
    assert interp.call_function(fn, [0]) == 7
    before = interp.instruction_count
    with pytest.raises(InterpreterError, match=message):
        interp.call_function(fn, [1])
    # the condbr, and the one instruction of ``bad`` that started
    assert interp.instruction_count == before + 2
    assert interp.call_depth == 0


def test_select_checks_only_the_arm_it_takes():
    """``left`` defines %v, ``right`` does not; ``join`` selects between
    %v and a constant on the path taken, so the arm that is not taken is
    never read."""
    module = Module()
    fn = module.add_function(Function("f", FunctionType(I32, [I1]), ["c"]))
    entry, left, right, join = (fn.add_block(name) for name in
                                ("entry", "left", "right", "join"))
    IRBuilder(entry).condbr(fn.args[0], left, right)
    b = IRBuilder(left)
    value = b.add(b.i32(40), b.i32(2))
    b.br(join)
    IRBuilder(right).br(join)
    b = IRBuilder(join)
    chosen = b.select(fn.args[0], value, b.i32(9))
    b.ret(b.add(chosen, value))  # a later, unconditional read: checked
    machine = boot(module, ARM32)
    assert Interpreter(machine).call_function(fn, [1]) == 84
    interp = Interpreter(machine)
    with pytest.raises(InterpreterError, match="use of undefined value"):
        interp.call_function(fn, [0])
    # the select ran (its constant arm), the add that reads %v raised
    assert interp.instruction_count == 1 + 1 + 2


# -- lazy, shared, bounded compilation ---------------------------------------

@pytest.fixture
def compiles(monkeypatch):
    """The sources handed to ``compile()`` by the cached compile step,
    which starts empty."""
    sources = []

    def counting(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    interpreter_module._block_code.cache_clear()
    # a module global shadows the builtin for _block_code alone
    monkeypatch.setattr(interpreter_module, "compile", counting,
                        raising=False)
    return sources


BRANCHY_SRC = """
int main() {
    int n;
    scanf("%d", &n);
    if (n > 100) { printf("big\\n"); n = n * 2; }
    printf("%d\\n", n);
    return 0;
}
"""


def _fresh_run(source, stdin):
    """A fresh compile of ``source`` run on a fresh machine; the
    interpreter that ran it."""
    interp = Interpreter(boot(compile_c(source, "test"), ARM32,
                              io=IOEnvironment(stdin=stdin)))
    assert interp.run_main() == 0
    return interp


def _blocks(interp):
    return [block for blocks, _ in interp._decoded.values()
            for block in blocks]


def _text(block):
    return block.header + "".join(block.chunks)


def test_a_block_is_compiled_when_it_first_runs(compiles):
    interp = _fresh_run(BRANCHY_SRC, b"5\n")
    assert interp.machine.io.stdout == b"5\n"
    ran = [block for block in _blocks(interp)
           if isinstance(block.run, types.FunctionType)]
    never_ran = [block for block in _blocks(interp)
                 if isinstance(block.run, functools.partial)]
    assert len(ran) + len(never_ran) == len(_blocks(interp))
    assert never_ran, "the input does not take the branch"
    # one compile() per block that ran, none for a block that did not
    assert sorted(compiles) == sorted(_text(block) for block in ran)
    assert not {_text(block) for block in never_ran} & set(compiles)


def test_compiled_blocks_are_shared_by_text(compiles):
    spec = workload("chess")
    first = _fresh_run(spec.source, spec.profile_stdin)
    assert len(compiles) == len(set(compiles)) > 60
    # a fresh compile_c of the same source on a fresh machine writes the
    # same text, so nothing is compiled again
    del compiles[:]
    second = _fresh_run(spec.source, spec.profile_stdin)
    assert compiles == []
    assert (second.instruction_count, second.cycles) == (
        first.instruction_count, first.cycles)
    assert second._decoded.keys().isdisjoint(first._decoded)


def test_code_cache_is_bounded():
    cache = interpreter_module._block_code
    bound = cache.cache_info().maxsize
    assert bound is not None
    for n in range(bound + 50):
        cache(f"def block(interp, frame):\n return {n}\n")
    assert cache.cache_info().currsize == bound


def test_generated_code_holds_no_interpreter_and_its_code_nothing_live():
    """Dropping an interpreter frees it by refcounting alone, with
    never-run blocks (their first-run stubs) present; and a code object —
    all the cache holds — reaches constants and names, never a machine,
    a page, an observer or IR."""
    gc.collect()
    gc.disable()
    try:
        interp = _fresh_run(BRANCHY_SRC, b"5\n")
        functions = [block.run for block in _blocks(interp)
                     if isinstance(block.run, types.FunctionType)]
        assert len(functions) < len(_blocks(interp))
        for function in functions:
            assert function.__closure__ is None
            assert all(value is not interp
                       for value in function.__globals__.values())
        codes = [function.__code__ for function in functions]
        del function, functions
        ref = weakref.ref(interp)
        del interp
        assert ref() is None
    finally:
        gc.enable()
    plain = (str, bytes, int, float, type(None))
    pending = list(codes)
    while pending:
        thing = pending.pop()
        if isinstance(thing, types.CodeType):
            pending += [thing.co_consts, thing.co_names, thing.co_varnames,
                        thing.co_freevars, thing.co_cellvars]
        elif isinstance(thing, (tuple, frozenset)):
            pending += thing
        else:
            assert isinstance(thing, plain), type(thing)


def test_concurrent_first_runs_of_one_function_are_correct(compiles):
    """The lockstep reference engine runs sessions on threads: each has
    its own interpreter, all share the compile cache.  More threads than
    cores and a short switch interval make them race on it."""
    source = workload("chess").source
    module = compile_c(source, "chess")
    stdin = workload("chess").profile_stdin
    expected = run_local(module, stdin=stdin)
    interpreter_module._block_code.cache_clear()
    start = threading.Barrier(8)
    results, errors = [], []

    def run():
        try:
            start.wait(timeout=30)
            results.append(run_local(module, stdin=stdin))
        except BaseException as error:  # reported by the assert below
            errors.append(error)

    threads = [threading.Thread(target=run) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 8
    for result in results:
        assert (result.stdout, result.exit_code, result.instructions,
                result.seconds) == (
            expected.stdout, expected.exit_code, expected.instructions,
            expected.seconds)


# -- one decode per (module, function, machine shape) ------------------------

@pytest.fixture
def decodes(monkeypatch):
    """(function, machine shape) of every whole-function decode."""
    seen = []
    decode = interpreter_module._Decoder.decode

    def counting(decoder):
        seen.append((decoder.fn, interpreter_module._shape(decoder.machine)))
        return decode(decoder)

    monkeypatch.setattr(interpreter_module._Decoder, "decode", counting)
    return seen


SHARED_SRC = r"""
int square(int x) { return x * x; }
int sum(int n) { int i, s = 0; for (i = 0; i < n; i++) s += square(i); return s; }
int main() { int n; scanf("%d", &n); printf("%d\n", sum(n)); return 0; }
"""


def _shared_run(module, arch=ARM32, role="mobile"):
    """A fresh machine for ``module`` and the interpreter that ran main on
    it, with its output."""
    machine = boot(module, arch, role, io=IOEnvironment(stdin=b"7\n"))
    interp = Interpreter(machine)
    return interp, machine.io.output(interp.run_main())


def test_interpreters_of_one_machine_shape_decode_once(decodes):
    module = compile_c(SHARED_SRC, "shared")
    first, first_output = _shared_run(module)
    second, second_output = _shared_run(module)
    assert first_output == second_output
    assert second_output.stdout == b"91\n"
    assert [fn.name for fn, _ in decodes] == ["main", "sum", "square"]
    assert len({shape for _, shape in decodes}) == 1
    for fn, (blocks, frame_size) in first._decoded.items():
        built, built_frame = second._decoded[fn]
        assert built_frame == frame_size
        # the code the first compiled, run by the second without text; a
        # stretch that only ran inside the one before it never compiled
        ran = [index for index, b in enumerate(blocks)
               if isinstance(b.run, types.FunctionType)]
        assert ran and ran == [index for index, b in enumerate(built)
                               if isinstance(b.run, types.FunctionType)]
        assert [built[index].run.__code__ for index in ran] == [
            blocks[index].run.__code__ for index in ran]
        assert all(b.chunks is None for b in built)
        texts = [_text(interpreter_module._with_text(second, fn, index))
                 for index in range(len(built))]
        assert texts == [_text(b) for b in blocks]
    assert len(decodes) == 3


def test_the_profiler_decodes_its_own_and_shares_with_its_kind(decodes):
    """The profiler's interpreter runs on only through blocks it does not
    watch, so it is written other code than ``run_local``'s: on one
    module and shape each decodes once, and shares with later
    interpreters of its own kind."""
    module = compile_c(SHARED_SRC, "shared")
    for _ in range(2):
        assert run_local(module, stdin=b"7\n").stdout == "91\n"
        assert run_local(module, stdin=b"7\n", observer=ProfilingObserver(
            module, ARM32)).stdout == "91\n"
    assert sorted(fn.name for fn, _ in decodes) == sorted(
        ["main", "sum", "square"] * 2)
    assert len({shape for _, shape in decodes}) == 1
    assert len(module.templates) == 2


def test_another_arch_role_or_layout_decodes_again(decodes):
    module = compile_c(SHARED_SRC, "shared")
    for arch, role in ((ARM32, "mobile"), (X86_64, "mobile"),
                       (ARM32, "server")):
        assert _shared_run(module, arch, role)[1].stdout == b"91\n"
    names = [fn.name for fn, _ in decodes]
    assert sorted(names) == sorted(["main", "sum", "square"] * 3)
    assert len(set(decodes)) == 9
    # The server of an ARM32 -> X86_64 program runs the unified 4-byte
    # layout; the same module on a native X86_64 machine does not share.
    server = build_c(SHARED_SRC, b"7\n", compiler_options=CompilerOptions(
        mobile_arch=ARM32, server_arch=X86_64,
        forced_targets=["sum"])).program.server_module
    del decodes[:]
    unified = boot(server, X86_64, "server")
    assert Interpreter(unified).call_by_name("sum", [7]) == 91
    for key in (UNIFIED_LAYOUTS_KEY, UNIFIED_ORDER_KEY, UNIFIED_POINTER_KEY):
        server.metadata.pop(key, None)
    native = boot(server, X86_64, "server")
    assert (unified.layout.pointer_bytes, native.layout.pointer_bytes) == (
        4, 8)
    assert Interpreter(native).call_by_name("sum", [7]) == 91
    assert sorted(fn.name for fn, _ in decodes) == [
        "square", "square", "sum", "sum"]
    assert len({shape for _, shape in decodes}) == 2


def test_a_clone_starts_without_templates(decodes):
    module = compile_c(SHARED_SRC, "shared")
    _shared_run(module)
    assert module.templates
    clone = module.clone()
    assert not clone.templates
    # what a pass does to the clone is what the clone runs
    ret = next(instruction
               for instruction in clone.function("square").instructions()
               if instruction.opcode == "ret")
    ret.replace_operand(ret.value, Constant(I32, 5))
    assert _shared_run(clone)[1].stdout == b"35\n"
    assert _shared_run(module)[1].stdout == b"91\n"
    assert len(decodes) == 6


def test_a_function_edited_after_its_decode_is_decoded_again(decodes):
    """A template is served only to the edition of the function it was
    decoded from: an operand replaced (twice, so the first constant's
    memory may be reused), an operand list edited in place, an
    instruction inserted."""
    module = compile_c(SHARED_SRC, "shared")
    assert _shared_run(module)[1].stdout == b"91\n"
    ret = next(instruction
               for instruction in module.function("square").instructions()
               if instruction.opcode == "ret")
    ret.replace_operand(ret.value, Constant(I32, 5))
    ret.replace_operand(ret.value, Constant(I32, 2))
    assert _shared_run(module)[1].stdout == b"14\n"
    ret.operands[0] = Constant(I32, 3)
    assert _shared_run(module)[1].stdout == b"21\n"
    add = BinOp("add", ret.value, Constant(I32, 1))
    ret.parent.insert(ret.parent.instructions.index(ret), add)
    ret.replace_operand(ret.value, add)
    assert _shared_run(module)[1].stdout == b"28\n"
    assert [fn.name for fn, _ in decodes] == [
        "main", "sum", "square", "square", "square", "square"]


def test_a_template_keeps_the_limit_and_the_give_back_exact(decodes):
    """Interpreters after the first build ``main`` from its template:
    the truncated variant and the line table behind the give-back are the
    first's."""
    module, classes = _program(ORDINARY)
    first = _interp(module)
    sums = _reference(first, classes)
    first.run_main()
    for limit in range(len(classes)):
        interp = _interp(module)
        interp.max_instructions = limit
        with pytest.raises(ExecutionLimitExceeded,
                           match=f"exceeded {limit} instructions"):
            interp.run_main()
        assert (interp.instruction_count, interp.cycles.hex()) == (
            limit + 1, sums[limit].hex()), limit
        main = interp._decoded[module.function("main")][0]
        assert main[0].stretch is first._decoded[
            module.function("main")][0][0].stretch
    module, classes = _program(ORDINARY[:3] + ["udiv by zero"]
                               + ORDINARY[3:])
    counts = []
    for _ in range(2):
        interp = _interp(module)
        with pytest.raises(InterpreterError, match="division by zero"):
            interp.run_main()
        counts.append((interp.instruction_count, interp.cycles.hex()))
    sums = _reference(interp, classes)
    assert counts == [(len(sums) - 1, sums[-1].hex())] * 2
    assert len(decodes) == len(set(decodes))


def _reaches(root, kinds):
    """The objects of ``kinds`` that ``root`` keeps alive (a function's
    globals are the process's and are not followed)."""
    seen, pending, found = set(), [root], []
    while pending:
        thing = pending.pop()
        if id(thing) in seen or isinstance(thing, (type, types.ModuleType)):
            continue
        seen.add(id(thing))
        if isinstance(thing, kinds):
            found.append(thing)
        if isinstance(thing, types.FunctionType):
            pending += [thing.__closure__, thing.__defaults__]
        else:
            pending += gc.get_referents(thing)
    return found


def test_a_dropped_session_frees_its_machines_while_its_program_lives():
    built = build_c(HOT_KERNEL_SRC, HOT_KERNEL_STDIN)
    program = built.program
    assert built.session(FAST_WIFI).run().offloaded_invocations == 1
    assert program.mobile_module.templates and program.server_module.templates
    assert _reaches(program, (Machine, AddressSpace, Interpreter, Observer,
                              bytearray)) == []
    gc.collect()
    gc.disable()
    try:
        session = built.session(FAST_WIFI)
        assert session.run().offloaded_invocations == 1
        machines = [weakref.ref(session.mobile), weakref.ref(session.server)]
        del session
        assert [machine() for machine in machines] == [None, None]
    finally:
        gc.enable()


def test_a_contended_fleet_decodes_each_function_once_per_shape(decodes):
    built = workload("fleet-micro").build()
    expected = built.local().output
    del decodes[:]
    scheduler = FleetScheduler(
        identical_devices(6, built.program, FAST_WIFI, stdin=b"600\n",
                          spacing_s=0.0005),
        ServerPool(PoolOptions(servers=2, capacity=1, queue_limit=4)))
    fleet = scheduler.run()
    assert not fleet.differences(expected)
    # replay re-runs the prefixes the admissions cut
    assert scheduler.replay.stats()["session_runs"] > 12
    assert all(device.result.offloaded_invocations >= 2
               for device in fleet.devices)
    assert decodes and len(decodes) == len(set(decodes))


# -- import repro without networkx ------------------------------------------

def test_import_repro_does_not_import_networkx():
    code = ("import sys, repro, repro.fleet, repro.trace.analysis; "
            "sys.exit('networkx' in sys.modules)")
    src = Path(repro.__file__).resolve().parent.parent
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60).returncode == 0


CALLS_SRC = """
int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }
int odd(int n);
int even(int n) { return n == 0 ? 1 : odd(n - 1); }
int odd(int n) { return n == 0 ? 0 : even(n - 1); }
int twice(int x) { return x * 2; }
int lonely(int x) { return x; }
int apply(int (*f)(int), int x) { return f(x); }
int main() { return apply(twice, fact(3)) + even(4); }
"""


def test_call_graph_answers():
    graph = CallGraph(compile_c(CALLS_SRC, "calls"))
    assert graph.address_taken == {"twice"}
    callees = {name: graph.callees(name) for name in graph.module.functions}
    assert callees == {
        "fact": ["fact"], "odd": ["even"], "even": ["odd"], "twice": [],
        "lonely": [], "apply": ["twice"],
        "main": ["apply", "even", "fact"]}
    callers = {name: graph.callers(name) for name in graph.module.functions}
    assert callers == {
        "fact": ["fact", "main"], "odd": ["even"], "even": ["main", "odd"],
        "twice": ["apply"], "lonely": [], "apply": ["main"], "main": []}
    # without the root, even when it is on a cycle
    assert graph.transitive_callees("fact") == set()
    assert graph.transitive_callees("even") == {"odd"}
    assert graph.transitive_callees("odd") == {"even"}
    assert graph.transitive_callees("main") == {
        "apply", "twice", "fact", "even", "odd"}
    assert graph.transitive_callees("nosuch") == set()
    assert graph.reachable_from(["even", "nosuch"]) == {"even", "odd"}
    assert graph.reachable_from(["apply", "lonely"]) == {
        "apply", "twice", "lonely"}
    assert graph.reachable_from([]) == set()
