"""The decoder's value ranges, checked where the programs run.

``_Decoder.in_range`` says which values the code written for them leaves
in ``[0, 2**bits)`` of their type, and every signed read of such a value
skips the mask (docs/architecture.md, "Value ranges").  ``RangeChecked``
is a decoder that checks ``0 <= v < 2**bits`` behind every definition
the predicate calls in range; a program run through it must
end as it ends through ``Masking``, which calls no value in range and so
writes every signed read as a mask — the form every read had before the
decoder knew ranges — with no assertion raised.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterable, List, Optional

import pytest

from repro.frontend import compile_c
from repro.ir import (Constant, Function, FunctionType, I1, I8, IRBuilder,
                      Module, ptr)
from repro.machine import Interpreter, boot
from repro.machine import interpreter as interpreter_module
from repro.machine.fs import IOEnvironment
from repro.targets import ARM32, MIPS32BE, TargetArch
from repro.workloads import WORKLOADS

REGRESS = sorted((Path(__file__).parent / "regress").glob("*.c"))


class RangeChecked(interpreter_module._Decoder):
    """Asserts each value the predicate calls in range where it is
    defined."""

    def decode_instruction(self, instruction):
        chunk = super().decode_instruction(instruction)
        bits = self.width(instruction.type)
        if bits is not None and self.in_range(instruction):
            name = self.names[instruction]
            # not ``assert``, which ``python -O`` would compile away
            chunk += (f" if not 0 <= {name} < {1 << bits}:\n"
                      f"  raise AssertionError(({name}, "
                      f"{instruction.short()!r}))\n")
        return chunk


class Masking(interpreter_module._Decoder):
    """Knows no value to be in range."""

    def in_range(self, value):
        return False


@contextlib.contextmanager
def decoded_by(decoder):
    """Every function decoded inside is written by ``decoder``.  Only a
    module nothing has decoded yet (a fresh compile or a clone) gets its
    code: a template is kept on the module."""
    plain = interpreter_module._Decoder
    interpreter_module._Decoder = decoder
    try:
        yield
    finally:
        interpreter_module._Decoder = plain


def _run(module: Module, arch: TargetArch, stdin: bytes = b"",
         files: Optional[dict] = None) -> tuple:
    machine = boot(module, arch, io=IOEnvironment(files=files, stdin=stdin))
    interp = Interpreter(machine)
    try:
        end = interp.run_main()
    except interpreter_module.InterpreterError as error:  # .error programs
        end = f"{type(error).__name__}: {error}"
    return end, bytes(machine.io.stdout)


def compare(module: Module, arch: TargetArch, stdin: bytes = b"",
            files: Optional[dict] = None) -> None:
    """Runs two clones of ``module`` on ``arch``, one decoded by
    ``Masking`` and one by ``RangeChecked``; asserts they end alike (exit
    code, or the ``InterpreterError`` raised) with the same stdout."""
    with decoded_by(Masking):
        masked = _run(module.clone(), arch, stdin, files)
    with decoded_by(RangeChecked):
        checked = _run(module.clone(), arch, stdin, files)
    assert checked == masked


def oracle(arch: TargetArch, names: Optional[Iterable[str]] = None,
           regress: Iterable[Path] = REGRESS) -> List[str]:
    """``compare`` on every registry program (or those ``names``) on its
    profiling input, and on each ``regress`` program, on ``arch``.
    Returns what it ran."""
    ran = []
    for name in WORKLOADS if names is None else names:
        spec = WORKLOADS[name]
        compare(spec.module(arch), arch, spec.profile_stdin,
                spec.profile_files)
        ran.append(name)
    for path in regress:
        compare(compile_c(path.read_text(encoding="utf-8"), path.stem,
                          target=arch), arch)
        ran.append(path.name)
    return ran


@pytest.mark.parametrize("arch", [ARM32, MIPS32BE], ids=lambda a: a.name)
def test_every_value_called_in_range_is(arch):
    assert len(oracle(arch)) == len(WORKLOADS) + len(REGRESS)


def _byte_read_as_i1():
    """``f(p)`` stores 5 to the byte at ``p`` and returns it loaded as
    an ``i1``: a value no whole-byte load range covers."""
    module = Module()
    fn = module.add_function(Function("f", FunctionType(I1, [ptr(I8)]),
                                      ["p"]))
    b = IRBuilder(fn.add_block("entry"))
    b.store(Constant(I8, 5), fn.args[0])
    b.ret(b.load(b.bitcast(fn.args[0], ptr(I1))))
    return module


def test_the_oracle_fails_a_value_wrongly_called_in_range():
    """An ``i1`` load is out of range (its byte can hold 2..255); a
    predicate that calls every value in range is caught there."""
    module = _byte_read_as_i1()
    machine = boot(module, ARM32)
    address = machine.native_heap.alloc(1)
    machine.map_range(address, 1)
    assert Interpreter(machine).call_by_name("f", [address]) == 5

    class Everything(RangeChecked):
        def in_range(self, value):
            return True

    with decoded_by(Everything):
        machine = boot(module.clone(), ARM32)
        machine.map_range(address, 1)
        with pytest.raises(AssertionError, match="5"):
            Interpreter(machine).call_by_name("f", [address])
