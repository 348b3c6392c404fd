"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pytest

from repro.frontend import compile_c
from repro.machine import Interpreter, boot
from repro.offload import CompilerOptions
from repro.runtime import FAST_WIFI, SessionOptions, run_local
from repro.targets import ARM32, TargetArch
from repro.workloads import BuiltWorkload, WorkloadSpec


def run_c(source: str, stdin: bytes = b"",
          files: Optional[Dict[str, bytes]] = None,
          arch: TargetArch = ARM32) -> Tuple[int, str]:
    """Compile and run a C snippet locally; returns (exit_code, stdout)."""
    module = compile_c(source, "test")
    result = run_local(module, arch=arch, stdin=stdin, files=files)
    return result.exit_code, result.stdout


def interp_for(source: str, arch: TargetArch = ARM32,
               role: str = "mobile") -> Interpreter:
    """Machine + interpreter with a compiled module loaded."""
    return Interpreter(boot(compile_c(source, "test"), arch, role))


def build_c(source: str, stdin: bytes = b"",
            files: Optional[Dict[str, bytes]] = None,
            profile_stdin: Optional[bytes] = None,
            compiler_options: Optional[CompilerOptions] = None,
            name: str = "test") -> BuiltWorkload:
    """The source -> program recipe on a C snippet."""
    return WorkloadSpec.from_source(source, name, stdin, files,
                                    profile_stdin).build(compiler_options)


def offload_c(source: str, stdin: bytes = b"",
              files: Optional[Dict[str, bytes]] = None,
              profile_stdin: Optional[bytes] = None,
              network=FAST_WIFI,
              compiler_options: Optional[CompilerOptions] = None,
              session_options: Optional[SessionOptions] = None):
    """Full pipeline on a C snippet; returns (local, session_result,
    program)."""
    built = build_c(source, stdin, files, profile_stdin, compiler_options)
    return (built.local(), built.session(network, session_options).run(),
            built.program)


# A compute kernel big enough for the selector to pick, small enough for
# fast tests: repeated polynomial evaluation over an array.
HOT_KERNEL_SRC = r"""
int *data;
int n;

int crunch(void) {
    int i, r, acc = 0;
    for (r = 0; r < 40; r++) {
        for (i = 0; i < n; i++) {
            acc += (data[i] * 31 + r) ^ (acc >> 3);
        }
    }
    return acc;
}

int main() {
    int i;
    scanf("%d", &n);
    data = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    printf("crunched %d\n", crunch());
    return 0;
}
"""
HOT_KERNEL_STDIN = b"600\n"
