"""Forced targets obey the function filter.

A forced target list skips Equation 1, never the filter: every
filter-passing candidate of a registry program, function or loop, builds
and runs with output equal to phone-only execution, and every other name
is refused with ``TargetRefused`` and the reason — the filter's (naming
``scanf``), ``never executed on the profiling input``, ``not a defined
function or loop`` or ``cannot outline``.  Selection under Equation 1
reads the same verdicts, so a hot loop that cannot be outlined loses to
its function.
"""

from typing import Dict, Tuple

import pytest

from repro.frontend import compile_c
from repro.ir import (Function, FunctionType, GlobalVariable, I32, IRBuilder,
                      Module, array)
from repro.offload import (CompilerOptions, NativeOffloaderCompiler,
                           TargetRefused)
from repro.profiler import profile_module
from repro.runtime import FAST_WIFI, OffloadSession, SessionOptions, run_local
from repro.targets import ARM32, MIPS32BE, X86_64
from repro.workloads import WorkloadSpec, workload

# Every invocation of a forced target goes to the server.
ALWAYS_OFFLOAD = SessionOptions(enable_dynamic_estimation=False)


def sweep(spec: WorkloadSpec, options: CompilerOptions
          ) -> Tuple[int, Dict[str, str]]:
    """Forces every candidate of ``spec`` in turn on the profiling
    inputs.  A candidate whose verdict passes must build and run with
    output equal to local execution; any other must be refused with its
    verdict's reasons.  Returns the number forced and the refusals.

    Every forced target must be offloaded at least once: its stub takes
    its place, so a function called solely through a pointer (chess
    ``evalPawn``) reaches the decision as a directly called one does."""
    module = spec.module(options.mobile_arch)
    stdin, files = spec.profile_stdin, spec.profile_files
    profile = profile_module(module, arch=options.mobile_arch,
                             stdin=stdin, files=files)
    local = run_local(module, arch=options.mobile_arch, stdin=stdin,
                      files=files).output
    candidates = NativeOffloaderCompiler(options).compile(
        module, profile).selection.candidates
    forced, refusals = 0, {}
    for name, candidate in sorted(candidates.items()):
        compiler = NativeOffloaderCompiler(
            CompilerOptions(options.mobile_arch, options.server_arch,
                            forced_targets=[name]))
        if not candidate.verdict:
            with pytest.raises(TargetRefused) as refused:
                compiler.compile(module, profile)
            message = str(refused.value)
            assert candidate.verdict.reasons
            assert all(r in message for r in candidate.verdict.reasons)
            refusals[name] = message
            continue
        program = compiler.compile(module, profile)
        assert program.target_names() == [name]
        result = OffloadSession(program, FAST_WIFI, ALWAYS_OFFLOAD,
                                stdin=stdin, files=files).run()
        assert result.offloaded_invocations > 0, name
        assert result.output.differences(local) == [], name
        forced += 1
    return forced, refusals


ENTRY = "program entry point"
SCANF = "interactive I/O call scanf"


@pytest.mark.parametrize("name, forced, refused", [
    ("chess", 16, {
        "main": ENTRY,
        "getPlayerTurn": SCANF,
        "runGame": f"via getPlayerTurn: {SCANF}",
        "runGame_for.cond1": "calls machine-specific getPlayerTurn"}),
    ("462.libquantum", 5, {"main": ENTRY}),
    ("433.milc", 9, {"main": ENTRY, "main_for.cond5": SCANF}),
])
def test_every_filter_passing_candidate_offloads_equal_to_local(
        name, forced, refused):
    count, refusals = sweep(workload(name), CompilerOptions(ARM32, X86_64))
    assert count == forced
    assert refusals == {target: f"cannot offload {target}: {reason}"
                        for target, reason in refused.items()}


POINTERS_SRC = r"""
int sq(int x) { return x * x; }
int (*table[2])(int) = {sq, sq};
int (*saved)(int);
void keep(void) { saved = sq; }
int main() {
    int i, total = 0;
    for (i = 0; i < 2; i++) total += table[i](i + 3);
    keep();
    total += saved(7);
    printf("%d\n", total);
    return 0;
}
"""


@pytest.mark.parametrize("mobile", [ARM32, MIPS32BE], ids=lambda a: a.name)
def test_every_pointer_to_a_target_reaches_the_decision(mobile):
    """``sq`` is never called directly: twice through a table entry, once
    through the address ``keep`` stores on the server, which s2m maps to
    the phone's stub.  Every one of those calls is offloaded."""
    module = compile_c(POINTERS_SRC, "pointers")
    program = NativeOffloaderCompiler(CompilerOptions(
        mobile, X86_64, forced_targets=["sq", "keep"])).compile(
            module, profile_module(module, arch=mobile))
    session = OffloadSession(program, FAST_WIFI, ALWAYS_OFFLOAD)
    result = session.run()
    assert [(r.target, r.offloaded) for r in result.invocations] == [
        ("sq", True), ("sq", True), ("keep", True), ("sq", True)]
    assert result.offloaded_invocations == 4
    assert session.fcn_table.s2m_lookups == 1
    local = run_local(module, arch=mobile).output
    assert local.stdout == b"74\n"
    assert result.output.differences(local) == []


# -- every kind of refusal --------------------------------------------------

#: Pages of a global array that ``count`` touches before its loop.
PAD_PAGES = 16


def _unoutlinable_loop_module() -> Module:
    """``count`` writes one word of each of ``PAD_PAGES`` pages, then
    spins a loop whose header load is read after the loop — a value
    defined inside and used outside, which the outliner refuses — and
    ``main`` calls it once.  The pages cost the function, not the loop,
    communication time, so Equation 1 scores the loop higher."""
    module = Module("spin")
    pad = module.add_global(
        GlobalVariable("pad", array(I32, 1024 * PAD_PAGES)))
    count = module.add_function(
        Function("count", FunctionType(I32, [I32]), ["n"]))
    entry, header, body, done = (count.add_block(name) for name in
                                 ("entry", "for.cond", "for.body",
                                  "for.end"))
    b = IRBuilder(entry)
    for page in range(PAD_PAGES):
        b.store(b.i32(page), b.gep(pad, [b.i32(0), b.i32(1024 * page)]))
    slot = b.alloca(I32)
    b.store(b.i32(0), slot)
    b.br(header)
    b.position_at_end(header)
    i = b.load(slot)
    b.condbr(b.cmp("slt", i, count.args[0]), body, done)
    b.position_at_end(body)
    b.store(b.add(i, b.i32(1)), slot)
    b.br(header)
    b.position_at_end(done)
    b.ret(i)
    main = module.add_function(Function("main", FunctionType(I32, [])))
    b = IRBuilder(main.add_block("entry"))
    b.ret(b.srem(b.call(count, [b.i32(20000)]), b.i32(7)))
    return module


def _compile_forced(module: Module, stdin: bytes, target: str):
    profile = profile_module(module, stdin=stdin)
    return NativeOffloaderCompiler(CompilerOptions(
        forced_targets=[target])).compile(module, profile)


@pytest.mark.parametrize("module, stdin, target, reason", [
    (lambda: workload("chess").module(), workload("chess").profile_stdin,
     "runGame", "via getPlayerTurn: interactive I/O call scanf"),
    (lambda: workload("chess").module(), workload("chess").profile_stdin,
     "getPlayerTurn", "interactive I/O call scanf"),
    (lambda: workload("458.sjeng").module(),
     workload("458.sjeng").profile_stdin,
     "eval_queen", "never executed on the profiling input"),
    (lambda: workload("462.libquantum").module(),
     workload("462.libquantum").profile_stdin,
     "no_such_function", "not a defined function or loop"),
    (_unoutlinable_loop_module, b"", "count_for.cond",
     "cannot outline: loop defines values used outside"),
], ids=["chess-runGame", "chess-getPlayerTurn", "sjeng-eval_queen",
        "unknown-name", "unoutlinable-loop"])
def test_a_forced_target_that_may_not_leave_is_refused_with_the_reason(
        module, stdin, target, reason):
    with pytest.raises(ValueError,
                       match=f"cannot offload {target}: .*{reason}") as e:
        _compile_forced(module(), stdin, target)
    assert e.type is TargetRefused


def test_a_forced_build_keeps_the_selection_record():
    module = _unoutlinable_loop_module()
    profile = profile_module(module)
    program = _compile_forced(module, b"", "count")
    assert program.target_names() == ["count"]
    assert [c.name for c in program.selection.selected] == ["count"]
    assert "count_for.cond" in program.selection.candidates
    # ``[]`` is a forced list too: exactly no targets
    nothing = NativeOffloaderCompiler(CompilerOptions(
        forced_targets=[])).compile(module, profile)
    assert nothing.target_names() == []
    assert nothing.selection.selected == []


# -- Equation 1 reads the same verdict --------------------------------------

def test_an_unoutlinable_hot_loop_loses_to_its_function():
    module = _unoutlinable_loop_module()
    program = NativeOffloaderCompiler(CompilerOptions()).compile(
        module, profile_module(module))
    loop = program.selection.candidates["count_for.cond"]
    assert not loop.verdict
    assert loop.verdict.reasons == [
        "cannot outline: loop defines values used outside"]
    function = program.selection.candidates["count"]
    assert loop.estimate.gain > function.estimate.gain > 0
    assert program.target_names() == ["count"]
    assert program.outlined_loops == []
    # the reason is the loop's own: the filter's cached function verdicts
    # stay clean
    assert program.selection.candidates["count"].verdict.reasons == []
