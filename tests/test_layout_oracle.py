"""gcc as a layout oracle: every struct layout the ABI engine computes is
the one gcc computes for the same target.

``targets/abi.py`` decides the offsets, sizes and alignments that memory
unification realigns (the paper's Figure 4), so a wrong rule there is
a wrong unified layout on both machines at once: the pair oracle cannot
see it.  gcc can.  :func:`layout_asserts` states a layout as C11
``_Static_assert``s on ``sizeof``, ``_Alignof`` and ``__builtin_offsetof``
and :func:`gcc_refusals` checks them with ``gcc -fsyntax-only`` in the
mode whose ABI matches the preset (:data:`GCC_MODES`): nothing is
linked or run, so no 32-bit libc is needed.

The structs checked are every 1–3-field mix of the seven scalar kinds,
each scalar behind a nested-struct and an array wrapper, every struct
a registry program declares, and the structs of the benchmark's
Figure 4 kernel.  Any list of IR structs — a generated program's too —
goes through the same two functions.  Skipped when no ``gcc`` is on
``PATH`` or it refuses a mode.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
import shutil
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import pytest

from repro.frontend import compile_c
from repro.ir import (ArrayType, FloatType, IntType, IRType, PointerType,
                      StructType, F32, F64, I8, I16, I32, I64, ptr)
from repro.targets import PRESETS, DataLayout, TargetArch
from repro.workloads import WORKLOADS

GCC = shutil.which("gcc")
REPO = Path(__file__).resolve().parent.parent

# The gcc mode whose struct ABI each preset follows: i386 caps double
# and long long at 4-byte alignment inside a struct (X86); x32 is ILP32
# with 8-byte-aligned double and long long (ARM32's EABI, MIPS32BE);
# x86-64 is LP64 (X86_64, ARM64).  Byte order does not touch layout.
GCC_MODES = {"x86": "-m32", "arm32": "-mx32", "mips32be": "-mx32",
             "x86_64": "-m64", "arm64": "-m64"}

# The seven scalar kinds a mini-C struct field can have.
SCALARS = (I8, I16, I32, I64, F32, F64, ptr(I8))
_C_INTS = {1: "_Bool", 8: "char", 16: "short", 32: "int", 64: "long long"}


def declaration(type: IRType, name: str, tags: Dict[str, str]) -> str:
    """The C declaration of ``name`` as a value of IR ``type``; a struct
    is named by its tag in ``tags`` (every pointer is ``void *``: all
    pointers of a target have one size and alignment)."""
    if isinstance(type, IntType):
        return f"{_C_INTS[type.bits]} {name}"
    if isinstance(type, FloatType):
        return f"{'float' if type.bits == 32 else 'double'} {name}"
    if isinstance(type, PointerType):
        return f"void *{name}"
    if isinstance(type, ArrayType):
        return declaration(type.element, f"{name}[{type.count}]", tags)
    if isinstance(type, StructType):
        return f"struct {tags[type.name]} {name}"
    raise TypeError(f"no C declaration for {type}")


def _members(type: IRType) -> Iterable[StructType]:
    while isinstance(type, ArrayType):
        type = type.element
    if isinstance(type, StructType):
        yield type


def layout_asserts(structs: Sequence[StructType], layout: DataLayout
                   ) -> str:
    """A C translation unit that declares ``structs`` (and every struct
    their fields hold, members first) and asserts ``layout``'s size,
    alignment and field offsets for each.  A failed assertion's message
    names the IR struct and what it expected."""
    tags: Dict[str, str] = {}
    lines: List[str] = []

    def declare(struct: StructType) -> None:
        if struct.name in tags or struct.is_opaque:
            return
        for _, type in struct.fields:
            for member in _members(type):
                declare(member)
        tag = tags[struct.name] = f"S{len(tags)}"
        fields = "".join(f" {declaration(type, f'f{i}', tags)};"
                         for i, (_, type) in enumerate(struct.fields))
        lines.append(f"struct {tag} {{{fields} }};")
        placed = layout.struct_layout(struct)
        facts = [(f"sizeof(struct {tag})", "sizeof", placed.size),
                 (f"_Alignof(struct {tag})", "_Alignof", placed.align)]
        facts += [(f"__builtin_offsetof(struct {tag}, f{i})",
                   f"offsetof {field}", offset)
                  for i, ((field, _), offset)
                  in enumerate(zip(struct.fields, placed.offsets))]
        lines.extend(f'_Static_assert({expr} == {value}, '
                     f'"{struct.name}: {what} {value}");'
                     for expr, what, value in facts)

    for struct in structs:
        declare(struct)
    return "\n".join(lines) + "\n"


def gcc_refusals(structs: Sequence[StructType], arch: TargetArch,
                 workdir: Path) -> List[str]:
    """Every layout fact of ``structs`` on ``arch`` that gcc refuses, as
    ``"<struct>: <what> <expected>"``; ``[]`` when all agree."""
    source = workdir / f"layouts-{arch.name}.c"
    source.write_text(layout_asserts(structs, DataLayout(arch)),
                      encoding="utf-8")
    done = subprocess.run([GCC, "-fsyntax-only", GCC_MODES[arch.name],
                           str(source)], capture_output=True, text=True,
                          timeout=60)
    refused = re.findall(r'static assertion failed: "([^"]*)"', done.stderr)
    assert done.returncode == 0 or refused, done.stderr
    return refused


def shapes() -> List[StructType]:
    """Every 1–3-field mix of the scalar kinds, then each scalar after
    every scalar inside a nested struct and as a 3-element array."""
    mixes = [fields for count in (1, 2, 3)
             for fields in itertools.product(SCALARS, repeat=count)]
    structs = [StructType(f"mix{i}", [(f"m{j}", type)
                                      for j, type in enumerate(fields)])
               for i, fields in enumerate(mixes)]
    for i, (lead, inner) in enumerate(itertools.product(SCALARS, SCALARS)):
        nested = StructType(f"inner{i}", [("x", inner), ("y", I8)])
        structs.append(StructType(f"nest{i}", [("a", lead), ("b", nested)]))
        structs.append(StructType(f"array{i}", [
            ("a", lead), ("b", ArrayType(inner, 3)), ("c", I8)]))
    return structs


def program_structs() -> List[StructType]:
    """The structs of every registry program and of the Figure 4 kernel,
    each named after its program so equal names cannot collide."""
    modules = {spec.name: spec.module() for spec in WORKLOADS.values()}
    modules["layouts"] = compile_c((REPO / "bench" / "programs" / "layouts.c")
                                   .read_text(encoding="utf-8"), "layouts")
    found = []
    for program, module in modules.items():
        renamed: Dict[str, StructType] = {}

        def rename(type: IRType) -> IRType:
            if isinstance(type, ArrayType):
                return ArrayType(rename(type.element), type.count)
            if isinstance(type, StructType) and not type.is_opaque:
                if type.name not in renamed:
                    renamed[type.name] = StructType(
                        f"{program}:{type.name}",
                        [(name, rename(t)) for name, t in type.fields])
                return renamed[type.name]
            return type

        found += [rename(struct) for struct in module.structs.values()
                  if not struct.is_opaque]
    return found


def _gcc_accepts(mode: str, workdir: Path) -> bool:
    probe = workdir / "probe.c"
    probe.write_text("struct p { char c; double d; };\n", encoding="utf-8")
    return subprocess.run([GCC, "-fsyntax-only", mode, str(probe)],
                          capture_output=True, timeout=60).returncode == 0


@pytest.fixture
def arch(request, tmp_path):
    if GCC is None:
        pytest.skip("no gcc on PATH")
    mode = GCC_MODES[request.param]
    if not _gcc_accepts(mode, tmp_path):
        pytest.skip(f"gcc refuses {mode} (no multilib for it)")
    return PRESETS[request.param]


def test_every_preset_has_a_gcc_mode():
    assert set(GCC_MODES) == set(PRESETS)


def test_the_checked_structs_cover_the_programs_and_every_kind():
    assert len(shapes()) == 7 + 7 ** 2 + 7 ** 3 + 2 * 7 ** 2
    names = {struct.name for struct in program_structs()}
    assert {"chess:Move", "chess:Piece", "layouts:Move",
            "layouts:Packet"} <= names


@pytest.mark.parametrize("arch", ["arm32"], indirect=True)
def test_a_wrong_layout_is_refused(arch, tmp_path):
    """The oracle can fail: i386's struct rule stated for ARM32, whose
    ``double`` and ``long long`` fields are 8-byte aligned."""
    i386_rule = dataclasses.replace(arch, max_field_align=4)
    move = StructType("Move", [("from", I8), ("to", I8), ("score", F64)])
    assert gcc_refusals([move], i386_rule, tmp_path) == [
        "Move: sizeof 12", "Move: _Alignof 4", "Move: offsetof score 4"]
    assert len(gcc_refusals(shapes(), i386_rule, tmp_path)) > 100


@pytest.mark.parametrize("arch", sorted(PRESETS), indirect=True)
def test_every_shape_is_laid_out_as_gcc_lays_it_out(arch, tmp_path):
    assert gcc_refusals(shapes(), arch, tmp_path) == []


@pytest.mark.parametrize("arch", sorted(PRESETS), indirect=True)
def test_every_program_struct_is_laid_out_as_gcc_lays_it_out(
        arch, tmp_path):
    assert gcc_refusals(program_structs(), arch, tmp_path) == []
