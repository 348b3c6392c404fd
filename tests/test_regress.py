"""Minimised programs that once went wrong: ``tests/regress/*.c``, each
beside the stdout it must print (``.stdout``, exit code 0) or a pattern
the ``InterpreterError`` it must raise matches (``.error``)."""

from pathlib import Path

import pytest

from repro.frontend import compile_c
from repro.machine import InterpreterError
from repro.runtime import run_local
from repro.targets import ARM32, X86_64

PROGRAMS = sorted((Path(__file__).parent / "regress").glob("*.c"))


def test_there_are_programs_each_with_one_expectation():
    assert PROGRAMS
    for path in PROGRAMS:
        assert (path.with_suffix(".stdout").exists()
                != path.with_suffix(".error").exists()), path.name


@pytest.mark.parametrize("arch", [ARM32, X86_64], ids=lambda arch: arch.name)
@pytest.mark.parametrize("path", PROGRAMS, ids=lambda path: path.stem)
def test_regress(path, arch):
    module = compile_c(path.read_text(encoding="utf-8"), path.stem,
                       target=arch)
    stdout = path.with_suffix(".stdout")
    if stdout.exists():
        result = run_local(module, arch=arch)
        assert (result.exit_code, result.stdout) == (
            0, stdout.read_text(encoding="utf-8"))
    else:
        pattern = path.with_suffix(".error").read_text(encoding="utf-8")
        with pytest.raises(InterpreterError, match=pattern.strip()):
            run_local(module, arch=arch)
