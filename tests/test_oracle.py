"""The oracle "offloaded equals phone-only" is ``GuestOutput`` equality —
exit code, stdout, stderr and final file contents — and it is wider than
the stdout comparison it replaced: a program whose offloaded function
writes stderr, appends to a file and computes the exit code passes it on
a faulty link, and three mutants of the runtime that the stdout
comparison lets through (or, for PR 14's bug, catches only by accident)
are each named by ``differences``.
"""

import pytest

from repro.machine import Interpreter
from repro.offload import CompilerOptions
from repro.runtime import (FAST_WIFI, FaultPlan, OffloadSession,
                           SessionOptions)
from repro.targets import ARM32, MIPS32BE, X86_64

from conftest import build_c

SOURCE = r"""
int audit(int n) {
    void *log = fopen("audit.log", "a");
    int i, acc = 0;
    for (i = 0; i < n; i++) acc += (i * 7) ^ (acc >> 2);
    fprintf((void*)2, "audit: %d rounds\n", n);
    fwrite("checked\n", 1, 8, log);
    fclose(log);
    return acc % 5 + 1;
}

int main() {
    int n;
    scanf("%d", &n);
    printf("auditing\n");
    return audit(n);
}
"""
FORCED = SessionOptions(enable_dynamic_estimation=False, enable_tracing=True)


def _built(mobile_arch=ARM32):
    return build_c(SOURCE, b"300\n", {"audit.log": b"opened\n"},
                   compiler_options=CompilerOptions(
                       mobile_arch=mobile_arch, server_arch=X86_64,
                       forced_targets=["audit"]))


@pytest.mark.parametrize("mobile_arch", [ARM32, MIPS32BE],
                         ids=lambda arch: f"{arch.name}->x86_64")
def test_all_four_components_survive_offload_and_a_mid_exec_abort(
        mobile_arch):
    built = _built(mobile_arch)
    local = built.local()
    assert local.output.exit_code == 5
    assert local.output.stderr == b"audit: 300 rounds\n"
    assert local.output.files == {"audit.log": b"opened\nchecked\n"}

    result = built.session(FAST_WIFI, FORCED).run()
    assert result.offloaded_invocations == 1
    assert type(result.output) is type(local.output)
    assert result.output == local.output

    # The link dies under the fclose: the fopen, the stderr line and the
    # append were already forwarded, so the local replay repeats them and
    # only a rollback of stderr and of the file keeps them single.
    faulty = built.session(FAST_WIFI, SessionOptions(
        enable_dynamic_estimation=False, enable_tracing=True,
        fault_plan=FaultPlan(seed=7, disconnect_after_messages=6))).run()
    happened = [e.category for e in faulty.trace.events()
                if e.category in ("rio.op", "offload.abort")]
    assert happened == ["rio.op"] * 3 + ["offload.abort"]
    assert faulty.local_fallbacks == 1
    assert faulty.output.differences(local.output) == []


def _mutate_forwarded_calls(monkeypatch, mutate):
    """Every forwarded stdio call goes through ``mutate(name, args)``
    first: it returns the args to forward, or None to drop the call."""
    real = OffloadSession._remote_io

    def remote_io(self, name, op, interp, args):
        args = mutate(name, list(args))
        return 0 if args is None else real(self, name, op, interp, args)
    monkeypatch.setattr(OffloadSession, "_remote_io", remote_io)


def _stderr_lands_in_stdout(monkeypatch):        # PR 14's bug
    def mutate(name, args):
        if name == "fprintf" and args[0] == 2:
            args[0] = 1
        return args
    _mutate_forwarded_calls(monkeypatch, mutate)


def _fwrite_is_dropped(monkeypatch):
    _mutate_forwarded_calls(
        monkeypatch, lambda name, args: None if name == "fwrite" else args)


def _exit_code_is_zeroed(monkeypatch):
    real = Interpreter.run_main
    monkeypatch.setattr(Interpreter, "run_main",
                        lambda interp, argv=(): real(interp, argv) * 0)


@pytest.mark.parametrize("install_mutant,named,stdout_alone_notices", [
    (_stderr_lands_in_stdout, ["stdout", "stderr"], True),
    (_fwrite_is_dropped, ["files: audit.log"], False),
    (_exit_code_is_zeroed, ["exit code"], False),
], ids=lambda value: getattr(value, "__name__", None))
def test_differences_names_what_each_mutant_breaks(
        monkeypatch, install_mutant, named, stdout_alone_notices):
    built = _built()
    local = built.local()
    install_mutant(monkeypatch)
    result = built.session(FAST_WIFI, FORCED).run()
    assert result.offloaded_invocations == 1
    assert result.output.differences(local.output) == named
    assert (result.stdout != local.stdout) == stdout_alone_notices
