"""gcc as an oracle: a mini-C program built by gcc must print what the
simulated machine prints.

The pair oracle (offloaded equals phone-only) cannot see a bug that gives
the same wrong answer on both machines; a native build can.  Every
registry program runs on its profiling inputs, under gcc and on the
x86-64 machine, and the stdout and exit code must be equal.  Every
``tests/regress`` program with a ``.stdout`` must print that file under
gcc, unless docs/mini-c.md lists it as needing a mini-C extension; gcc
must reject each listed extension and each program that needs one.
Skipped when no ``gcc`` is on ``PATH``.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.frontend import compile_c
from repro.runtime import run_local
from repro.targets import X86_64
from repro.workloads import WORKLOADS

GCC = shutil.which("gcc")
pytestmark = pytest.mark.skipif(GCC is None, reason="no gcc on PATH")

REPO = Path(__file__).resolve().parent.parent
REGRESS = sorted((REPO / "tests" / "regress").glob("*.c"))
PRINTING = [path for path in REGRESS if path.with_suffix(".stdout").exists()]
# Mini-C declares libc itself; gcc gets the headers on the command line.
HEADERS = [arg for header in ("stdio.h", "stdlib.h", "string.h", "math.h")
           for arg in ("-include", header)]


def extensions():
    """docs/mini-c.md's extension table: ``(example, regress programs)``
    per row."""
    text = (REPO / "docs" / "mini-c.md").read_text(encoding="utf-8")
    table = text.split("## Extensions", 1)[1]
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 3 or cells[0] in ("Extension", "---"):
            continue
        (example,) = re.findall(r"`([^`]+)`", cells[1])
        rows.append((example, re.findall(r"`([^`]+\.c)`", cells[2])))
    return rows


EXTENSIONS = extensions()
NEEDS_EXTENSION = {name for _, names in EXTENSIONS for name in names}


def gcc(source: str, workdir: Path, *flags: str
        ) -> subprocess.CompletedProcess:
    (workdir / "prog.c").write_text(source, encoding="utf-8")
    return subprocess.run(
        [GCC, "-O0", "-w", *HEADERS, *flags, "prog.c", "-lm"],
        cwd=workdir, capture_output=True, text=True, timeout=60)


def run_native(source: str, workdir: Path, stdin: bytes = b"",
               files=None) -> subprocess.CompletedProcess:
    """Build ``source`` with gcc and run it in ``workdir`` holding
    ``files``; returns the finished process (stdout as bytes)."""
    build = gcc(source, workdir, "-o", "prog")
    assert build.returncode == 0, build.stderr
    for name, data in (files or {}).items():
        (workdir / name).write_bytes(data)
    return subprocess.run(["./prog"], cwd=workdir, input=stdin,
                          capture_output=True, timeout=60)


def test_the_extension_table_is_read():
    assert EXTENSIONS
    assert all(name in {p.name for p in PRINTING}
               for name in NEEDS_EXTENSION)


@pytest.mark.parametrize("spec", list(WORKLOADS.values()),
                         ids=lambda spec: spec.name)
def test_registry_program_matches_gcc(spec, tmp_path):
    native = run_native(spec.source, tmp_path, spec.profile_stdin,
                        spec.profile_files)
    local = run_local(spec.module(X86_64), arch=X86_64,
                      stdin=spec.profile_stdin, files=spec.profile_files)
    assert (native.returncode, native.stdout) == (
        local.exit_code, local.output.stdout)


@pytest.mark.parametrize("path", PRINTING, ids=lambda path: path.stem)
def test_regress_program_matches_gcc(path, tmp_path):
    source = path.read_text(encoding="utf-8")
    if path.name in NEEDS_EXTENSION:
        assert gcc(source, tmp_path, "-fsyntax-only").returncode != 0
        return
    native = run_native(source, tmp_path)
    assert (native.returncode, native.stdout) == (
        0, path.with_suffix(".stdout").read_bytes())


@pytest.mark.parametrize("example", [example for example, _ in EXTENSIONS])
def test_gcc_rejects_each_extension(example, tmp_path):
    compile_c(example, "extension")
    assert gcc(example, tmp_path, "-fsyntax-only").returncode != 0
