"""Minimised programs that once went wrong: ``tests/regress/*.c``, each
beside the stdout it must print (``.stdout``, exit code 0) or a pattern
the ``InterpreterError`` it must raise matches (``.error``).  A ``.stdout``
program does its work in ``void work(void)``, which also runs offloaded
from a big-endian 32-bit phone to a little-endian 64-bit server."""

from pathlib import Path

import pytest

from repro.frontend import compile_c
from repro.machine import InterpreterError
from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, SessionOptions, run_local
from repro.targets import ARM32, MIPS32BE, X86_64

from conftest import build_c

PROGRAMS = sorted((Path(__file__).parent / "regress").glob("*.c"))
PRINTING = [path for path in PROGRAMS if path.with_suffix(".stdout").exists()]


def test_there_are_programs_each_with_one_expectation():
    assert PROGRAMS
    for path in PROGRAMS:
        assert (path.with_suffix(".stdout").exists()
                != path.with_suffix(".error").exists()), path.name


@pytest.mark.parametrize("arch", [ARM32, X86_64, MIPS32BE],
                         ids=lambda arch: arch.name)
@pytest.mark.parametrize("path", PROGRAMS, ids=lambda path: path.stem)
def test_regress(path, arch):
    module = compile_c(path.read_text(encoding="utf-8"), path.stem,
                       target=arch)
    stdout = path.with_suffix(".stdout")
    if stdout.exists():
        result = run_local(module, arch=arch)
        assert (result.exit_code, result.output.stdout) == (
            0, stdout.read_bytes())
    else:
        pattern = path.with_suffix(".error").read_text(encoding="utf-8")
        with pytest.raises(InterpreterError, match=pattern.strip()):
            run_local(module, arch=arch)


@pytest.mark.parametrize("path", PRINTING, ids=lambda path: path.stem)
def test_regress_offloaded_across_byte_orders(path):
    built = build_c(path.read_text(encoding="utf-8"), name=path.stem,
                    compiler_options=CompilerOptions(
                        mobile_arch=MIPS32BE, server_arch=X86_64,
                        forced_targets=["work"]))
    local = built.local()
    assert (local.output.exit_code, local.output.stdout) == (
        0, path.with_suffix(".stdout").read_bytes())
    result = built.session(FAST_WIFI, SessionOptions(
        enable_dynamic_estimation=False)).run()
    assert result.offloaded_invocations == 1
    assert result.output.differences(local.output) == []
