"""Builtin C library for the simulated machines.

External functions in the IR are bound to these Python implementations by
name.  The offload function filter classifies them (I/O, allocation, pure
math, ...) via the tables in :mod:`repro.offload.filter`; the stdio calls
of the ``STDIO`` table are also what the remote I/O manager runs, bound to
the mobile's environment, for the server partition (paper, Section 3.4).
"""

from __future__ import annotations

import math
import re
from operator import attrgetter
from typing import Callable, List, NamedTuple

from ..ir.types import F32, F64, I8, I16, I32, I64
from .allocator import OutOfMemoryError
from .fs import IOEnvironment
from .interpreter import ExitProgram, Interpreter, InterpreterError
from .machine import Machine
from .memory import AddressSpace
from .values import encode_scalar, to_signed, to_unsigned


def install_libc(machine: Machine) -> None:
    """Register every builtin on a machine."""
    for name, fn in _BUILTINS.items():
        machine.register_builtin(name, fn)


def map_range(machine: Machine, address: int, size: int) -> None:
    """Ensure pages backing [address, address+size) exist (zero-filled)."""
    machine.map_range(address, size)


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------

def _allocator(prefix: str, heap_of, setup_cycles: int) -> dict:
    """malloc/free/calloc/realloc over one of a machine's heaps.  The
    ``u_`` family serves the UVA heap (Section 3.2's heap allocation
    replacement target) and pays two more cycles per allocation.  A
    request the heap cannot serve returns NULL, as C's does, at the
    cost a served one has; a failed ``realloc`` leaves the old block as
    it was."""

    def alloc(interp: Interpreter, size: int) -> int:
        try:
            addr = heap_of(interp.machine).alloc(size)
        except OutOfMemoryError:
            return 0
        map_range(interp.machine, addr, size)
        return addr

    def malloc(interp: Interpreter, args: List) -> int:
        addr = alloc(interp, int(args[0]))
        interp.charge("alu", setup_cycles)
        return addr

    def free(interp: Interpreter, args: List) -> None:
        addr = int(args[0])
        if addr:
            heap_of(interp.machine).free(addr)
        interp.charge("alu", 10)

    def calloc(interp: Interpreter, args: List) -> int:
        count, size = int(args[0]), int(args[1])
        total = count * size
        addr = alloc(interp, total)
        if addr:
            interp.machine.memory.write(addr, b"\x00" * total)
        interp.charge("mem", total / 8 + setup_cycles)
        return addr

    def realloc(interp: Interpreter, args: List) -> int:
        addr, size = int(args[0]), int(args[1])
        heap = heap_of(interp.machine)
        new_addr = alloc(interp, size)
        if addr and new_addr:
            old_size = heap.size_of(addr) or 0
            data = interp.machine.memory.read(addr, min(old_size, size))
            interp.machine.memory.write(new_addr, data)
            heap.free(addr)
            interp.charge("mem", min(old_size, size) / 8)
        interp.charge("alu", 30)
        return new_addr

    return {prefix + fn.__name__: fn
            for fn in (malloc, free, calloc, realloc)}


# ---------------------------------------------------------------------------
# Memory / string operations
# ---------------------------------------------------------------------------

def _memcpy(interp: Interpreter, args: List) -> int:
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    interp.machine.memory.copy(dst, src, n)
    interp.charge("mem", n / 8 + 2)
    return dst


def _memmove(interp: Interpreter, args: List) -> int:
    return _memcpy(interp, args)  # copy reads fully before writing


def _memset(interp: Interpreter, args: List) -> int:
    dst, byte, n = int(args[0]), int(args[1]) & 0xFF, int(args[2])
    interp.machine.memory.write(dst, bytes([byte]) * n)
    interp.charge("mem", n / 8 + 2)
    return dst


def _strlen(interp: Interpreter, args: List) -> int:
    s = interp.machine.memory.read_cstring(int(args[0]))
    interp.charge("mem", len(s) / 4 + 1)
    return len(s)


def _strcpy(interp: Interpreter, args: List) -> int:
    dst, src = int(args[0]), int(args[1])
    s = interp.machine.memory.read_cstring(src)
    interp.machine.memory.write(dst, s + b"\x00")
    interp.charge("mem", len(s) / 4 + 2)
    return dst


def _read_at_most(memory: AddressSpace, address: int, n: int) -> bytes:
    """The string at ``address``, read no further than its first ``n``
    bytes: what ``strncmp``, ``strncpy`` and ``%.Ns`` see."""
    try:
        return memory.read_cstring(address, limit=n)
    except ValueError:  # no NUL among them
        return memory.read(address, n)


def _strncpy(interp: Interpreter, args: List) -> int:
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    s = _read_at_most(interp.machine.memory, src, n)
    interp.machine.memory.write(dst, s.ljust(n, b"\x00"))
    interp.charge("mem", n / 4 + 2)
    return dst


def _strcmp(interp: Interpreter, args: List) -> int:
    a = interp.machine.memory.read_cstring(int(args[0]))
    b = interp.machine.memory.read_cstring(int(args[1]))
    interp.charge("mem", (min(len(a), len(b)) + 1) / 4)
    return to_unsigned((a > b) - (a < b), 32)


def _strncmp(interp: Interpreter, args: List) -> int:
    memory, n = interp.machine.memory, int(args[2])
    a = _read_at_most(memory, int(args[0]), n)
    # past the end of ``a`` the comparison is decided
    b = _read_at_most(memory, int(args[1]), min(n, len(a) + 1))
    interp.charge("mem", (min(len(a), len(b)) + 1) / 4)
    return to_unsigned((a > b) - (a < b), 32)


def _strcat(interp: Interpreter, args: List) -> int:
    dst, src = int(args[0]), int(args[1])
    d = interp.machine.memory.read_cstring(dst)
    s = interp.machine.memory.read_cstring(src)
    interp.machine.memory.write(dst + len(d), s + b"\x00")
    interp.charge("mem", (len(d) + len(s)) / 4)
    return dst


def _atoi(interp: Interpreter, args: List) -> int:
    s = interp.machine.memory.read_cstring(int(args[0])).strip()
    interp.charge("alu", len(s) / 2 + 2)
    i = 0
    sign = 1
    if i < len(s) and s[i:i + 1] in b"+-":
        sign = -1 if s[i:i + 1] == b"-" else 1
        i += 1
    value = 0
    while i < len(s) and s[i:i + 1].isdigit():
        value = value * 10 + (s[i] - ord("0"))
        i += 1
    return to_unsigned(sign * value, 32)


# ---------------------------------------------------------------------------
# printf / scanf machinery
# ---------------------------------------------------------------------------

# %[flags][width][.precision][length]conversion; a ``*`` width or
# precision is the next argument.
_CONVERSION = re.compile(
    rb"%([-+ 0#]*)(\*|[0-9]*)(?:\.(\*|[0-9]*))?([hlqz]*)(.?)", re.DOTALL)


def format_printf(memory: AddressSpace, fmt: bytes, args: List) -> bytes:
    """A C printf formatter over default-promoted varargs, in bytes;
    ``%s`` arguments are read from ``memory``."""
    out = bytearray()
    arg_iter = iter(args)
    done = 0
    for spec in _CONVERSION.finditer(fmt):
        out += fmt[done:spec.start()]
        done = spec.end()
        flags, width, precision, length, conv = spec.groups()
        if not conv:  # a lone % ends the format
            out += spec.group()
            break
        if width == b"*":
            width = to_signed(int(next(arg_iter, 0)), 32)
            if width < 0:
                flags += b"-"
            width = b"%d" % abs(width)
        if precision == b"*":
            precision = to_signed(int(next(arg_iter, 0)), 32)
            # a negative precision is taken as if it were omitted
            precision = b"%d" % precision if precision >= 0 else None
        out += _format_one(memory, flags + width, precision, length, conv,
                           arg_iter)
    out += fmt[done:]
    return bytes(out)


def _format_cycles(text: bytes) -> float:
    """"alu" cycles formatting ``text`` cost the CPU that made the call."""
    return len(text) / 2 + 4


def _format_one(memory, spec: bytes, precision, length: bytes, conv: bytes,
                arg_iter) -> bytes:
    if conv == b"%":
        return b"%"
    value = next(arg_iter, 0)
    if conv == b"p":
        return b"0x%x" % int(value)
    if conv == b"c":
        return (b"%" + spec + b"c") % (int(value) & 0xFF)
    if conv == b"s":
        address = int(value)
        data = (memory.read_cstring(address) if precision is None
                else _read_at_most(memory, address, int(precision or 0)))
        return (b"%" + spec + b"s") % data
    form = b"%" + spec + (b"" if precision is None else b"." + precision)
    bits = (8 if length == b"hh" else 16 if length == b"h"
            else 64 if b"l" in length or b"q" in length else 32)
    if conv in (b"d", b"i"):
        return (form + b"d") % to_signed(int(value), bits)
    if conv == b"u":
        return (form + b"d") % to_unsigned(int(value), bits)
    if conv in (b"x", b"X", b"o"):
        return (form + conv) % to_unsigned(int(value), bits)
    if conv in (b"f", b"F", b"e", b"E", b"g", b"G"):
        return (form + conv) % float(value)
    raise InterpreterError(
        f"unsupported printf conversion %{conv.decode('latin-1')}")


def _sprintf(interp: Interpreter, args: List) -> int:
    memory = interp.machine.memory
    text = format_printf(memory, memory.read_cstring(int(args[1])), args[2:])
    memory.write(int(args[0]), text + b"\x00")
    interp.charge("alu", _format_cycles(text))
    return len(text)


def _skip_space(stdin) -> bytes:
    while True:
        ch = stdin.read(1)
        if not ch:
            return b""
        if not ch.isspace():
            return ch


def _read_token(stdin) -> bytes:
    first = _skip_space(stdin)
    if not first:
        return b""
    token = bytearray(first)
    while True:
        ch = stdin.read(1)
        if not ch:
            break
        if ch.isspace():
            stdin.seek(-1, 1)
            break
        token += ch
    return bytes(token)


# what ``%d`` stores through, by length modifier; a value is stored
# modulo its width, as strtol's result is converted
_SCANF_INTS = {b"hh": I8, b"h": I16, b"l": I64, b"ll": I64}


def _scanf(interp: Interpreter, args: List) -> int:
    """Interactive stdin scanf — a *machine specific* function that pins
    its callers to the mobile device (Section 3.1)."""
    fmt = interp.machine.memory.read_cstring(int(args[0]))
    stdin = interp.machine.io.stdin
    memory, layout = interp.machine.memory, interp.machine.layout
    assigned = 0
    arg_index = 1
    i = 0
    while i < len(fmt):
        ch = fmt[i:i + 1]
        if ch != b"%":
            i += 1
            continue
        length = b""
        j = i + 1
        while fmt[j:j + 1] in b"lh":
            length += fmt[j:j + 1]
            j += 1
        conv = fmt[j:j + 1]
        i = j + 1
        token = _read_token(stdin)
        if not token:
            break
        ptr = int(args[arg_index])
        arg_index += 1
        try:
            if conv in (b"d", b"u", b"i"):
                type_ = _SCANF_INTS.get(length, I32)
                memory.write(ptr, encode_scalar(
                    to_unsigned(int(token), type_.bits), type_, layout))
            elif conv in (b"f", b"e", b"g"):
                memory.write(ptr, encode_scalar(
                    float(token), F64 if length == b"l" else F32, layout))
            elif conv == b"s":
                memory.write(ptr, token + b"\x00")
            elif conv == b"c":
                memory.write(ptr, token[:1])
            else:
                raise InterpreterError(
                    f"unsupported scanf conversion %{conv.decode()}")
        except ValueError:
            break
        assigned += 1
    interp.charge("alu", 20)
    return to_unsigned(assigned, 32)


def _getchar(interp: Interpreter, args: List) -> int:
    ch = interp.machine.io.read_stdin(1)
    interp.charge("alu", 2)
    return to_unsigned(ch[0] if ch else -1, 32)


# ---------------------------------------------------------------------------
# stdio: the calls the remote I/O manager can forward (Section 3.4)
# ---------------------------------------------------------------------------
#
# Each op is written once, against the memory its pointer arguments live
# in and the IOEnvironment it acts on, and returns
#
#     (C result, bytes that crossed between the two, local cycles)
#
# A program running on one machine binds both to that machine and pays
# the cycles (`_local_stdio`); the offload runtime binds the server's
# memory to the *mobile's* environment and prices the byte count by the
# op's forwarding class instead (`OffloadSession._remote_io`).  A handle
# that is not an open file costs no cycles.

def _printf(memory: AddressSpace, io: IOEnvironment, args: List):
    text = format_printf(memory, memory.read_cstring(int(args[0])), args[1:])
    io.write_stdout(text)
    return len(text), len(text), _format_cycles(text)


def _fprintf(memory: AddressSpace, io: IOEnvironment, args: List):
    handle = int(args[0])
    text = format_printf(memory, memory.read_cstring(int(args[1])), args[2:])
    f = io.file(handle)
    if f is None:
        io.write_std(handle, text)
        written = len(text)
    else:
        written = f.write(text)
    return written, len(text), _format_cycles(text)


def _puts(memory: AddressSpace, io: IOEnvironment, args: List):
    s = memory.read_cstring(int(args[0]))
    io.write_stdout(s + b"\n")
    return len(s) + 1, len(s) + 1, len(s) / 8 + 1


def _putchar(memory: AddressSpace, io: IOEnvironment, args: List):
    io.write_stdout(bytes([int(args[0]) & 0xFF]))
    return int(args[0]), 1, 1


def _fwrite(memory: AddressSpace, io: IOEnvironment, args: List):
    ptr, size, count, handle = (int(args[0]), int(args[1]), int(args[2]),
                                int(args[3]))
    f = io.file(handle)
    if f is None:
        return 0, 0, 0
    data = memory.read(ptr, size * count)
    written = f.write(data)
    return (written // size if size else 0), len(data), written / 8 + 10


def _fopen(memory: AddressSpace, io: IOEnvironment, args: List):
    path = memory.read_cstring(int(args[0])).decode()
    mode = memory.read_cstring(int(args[1])).decode()
    return io.open(path, mode), len(path), 50


def _fclose(memory: AddressSpace, io: IOEnvironment, args: List):
    return to_unsigned(io.close(int(args[0])), 32), 0, 20


def _fread(memory: AddressSpace, io: IOEnvironment, args: List):
    ptr, size, count, handle = (int(args[0]), int(args[1]), int(args[2]),
                                int(args[3]))
    f = io.file(handle)
    if f is None:
        return 0, 0, 0
    data = f.read(size * count)
    if data:
        memory.write(ptr, data)
    return (len(data) // size if size else 0), len(data), len(data) / 8 + 10


def _fgets(memory: AddressSpace, io: IOEnvironment, args: List):
    ptr, limit, handle = int(args[0]), int(args[1]), int(args[2])
    f = io.file(handle)
    if f is None or f.at_eof:
        return 0, 16, 0     # forwarded, the NULL is a 16-byte status reply
    line = f.read_line(limit)
    memory.write(ptr, line + b"\x00")
    return ptr, len(line), len(line) / 8 + 6


def _fgetc(memory: AddressSpace, io: IOEnvironment, args: List):
    f = io.file(int(args[0]))
    ch = f.read(1) if f is not None else b""
    return to_unsigned(ch[0] if ch else -1, 32), 1, 3


def _feof(memory: AddressSpace, io: IOEnvironment, args: List):
    f = io.file(int(args[0]))
    return (1 if f is None or f.at_eof else 0), 1, 2


class StdioOp(NamedTuple):
    fn: Callable    # (memory, io, args) -> (result, bytes moved, cycles)
    # How the remote I/O manager prices the bytes moved: "output" streams
    # them to the mobile, "control" is a small request/reply round trip,
    # "input" a pipelined read of the mobile's file data.
    forward: str
    unit: str       # cycle class of the local cycles
    # The cycles are formatting work on the arguments, so the CPU that
    # makes the call pays them even when the I/O itself is forwarded.
    formats: bool = False


STDIO = {
    "printf": StdioOp(_printf, "output", "alu", formats=True),
    "fprintf": StdioOp(_fprintf, "output", "alu", formats=True),
    "puts": StdioOp(_puts, "output", "mem"),
    "putchar": StdioOp(_putchar, "output", "alu"),
    "fwrite": StdioOp(_fwrite, "output", "mem"),
    "fopen": StdioOp(_fopen, "control", "alu"),
    "fclose": StdioOp(_fclose, "control", "alu"),
    "fread": StdioOp(_fread, "input", "mem"),
    "fgets": StdioOp(_fgets, "input", "mem"),
    "fgetc": StdioOp(_fgetc, "input", "alu"),
    "feof": StdioOp(_feof, "input", "alu"),
}


def _local_stdio(op: StdioOp):
    def builtin(interp: Interpreter, args: List):
        machine = interp.machine
        result, _, cycles = op.fn(machine.memory, machine.io, args)
        interp.charge(op.unit, cycles)
        return result
    return builtin


# ---------------------------------------------------------------------------
# Math and misc
# ---------------------------------------------------------------------------

def _math1(py_fn):
    def builtin(interp: Interpreter, args: List) -> float:
        interp.charge("fpu", 4)
        try:
            return float(py_fn(float(args[0])))
        except ValueError:
            return float("nan")
    return builtin


def _math2(py_fn):
    def builtin(interp: Interpreter, args: List) -> float:
        interp.charge("fpu", 6)
        try:
            return float(py_fn(float(args[0]), float(args[1])))
        except (ValueError, OverflowError):
            return float("nan")
    return builtin


def _abs(interp: Interpreter, args: List) -> int:
    interp.charge("alu", 1)
    return to_unsigned(abs(to_signed(int(args[0]), 32)), 32)


def _labs(interp: Interpreter, args: List) -> int:
    interp.charge("alu", 1)
    return to_unsigned(abs(to_signed(int(args[0]), 64)), 64)


_RAND_MULT = 1103515245
_RAND_INC = 12345


def _rand(interp: Interpreter, args: List) -> int:
    state = getattr(interp.machine, "rand_state", 1)
    state = (state * _RAND_MULT + _RAND_INC) & 0x7FFFFFFF
    interp.machine.rand_state = state
    interp.charge("alu", 4)
    return state


def _srand(interp: Interpreter, args: List) -> None:
    interp.machine.rand_state = int(args[0]) & 0x7FFFFFFF
    interp.charge("alu", 1)


def _exit(interp: Interpreter, args: List):
    raise ExitProgram(to_signed(int(args[0]), 32))


def _clock_ms(interp: Interpreter, args: List) -> int:
    """Deterministic simulated clock in milliseconds."""
    interp.charge("call", 1)
    return to_unsigned(int(interp.time_seconds * 1000), 64)


_BUILTINS = {
    **_allocator("", attrgetter("heap_for_malloc"), 20),
    **_allocator("u_", attrgetter("uva_heap"), 22),
    "memcpy": _memcpy,
    "memmove": _memmove,
    "memset": _memset,
    "strlen": _strlen,
    "strcpy": _strcpy,
    "strncpy": _strncpy,
    "strcmp": _strcmp,
    "strncmp": _strncmp,
    "strcat": _strcat,
    "atoi": _atoi,
    **{name: _local_stdio(op) for name, op in STDIO.items()},
    "sprintf": _sprintf,
    "scanf": _scanf,
    "getchar": _getchar,
    "sqrt": _math1(math.sqrt),
    "fabs": _math1(abs),
    "sin": _math1(math.sin),
    "cos": _math1(math.cos),
    "tan": _math1(math.tan),
    "exp": _math1(math.exp),
    "log": _math1(math.log),
    "floor": _math1(math.floor),
    "ceil": _math1(math.ceil),
    "pow": _math2(math.pow),
    "fmod": _math2(math.fmod),
    "atan2": _math2(math.atan2),
    "abs": _abs,
    "labs": _labs,
    "rand": _rand,
    "srand": _srand,
    "exit": _exit,
    "clock_ms": _clock_ms,
}
