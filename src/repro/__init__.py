"""Native Offloader: architecture-aware automatic computation offload for
native applications.

Reproduction of Lee et al., MICRO 2015.  The package is organized as the
paper's system is:

* :mod:`repro.frontend` / :mod:`repro.ir` — C frontend and the IR the
  compiler partitions.
* :mod:`repro.profiler` — the hot function/loop profiler.
* :mod:`repro.offload` — the Native Offloader compiler (target selection,
  memory unification, partitioning, server-specific optimization).
* :mod:`repro.runtime` — the Native Offloader runtime (UVA copy-on-demand,
  communication, dynamic estimation, the offload session).
* :mod:`repro.machine` / :mod:`repro.targets` — simulated ARM/x86 machines.
* :mod:`repro.workloads` — the 17 SPEC-like programs of Table 4 plus the
  chess running example.
* :mod:`repro.eval` — regenerates every table and figure of the paper.

Quick start::

    from repro import offload_app, FAST_WIFI

    result = offload_app(C_SOURCE, stdin=b"...", network=FAST_WIFI)
    print(result.output, result.total_seconds)

``offload_app`` is one call of the recipe every other caller uses too —
:meth:`repro.workloads.WorkloadSpec.build`, source -> module + profile +
program, with the mobile architecture stated once::

    built = WorkloadSpec(name="app", description="", source=C_SOURCE,
                         profile_stdin=b"...", eval_stdin=b"...").build()
    local = built.local()
    result = built.session(FAST_WIFI).run()
    assert result.output == local.output    # exit code, stdout, stderr, files
"""

from __future__ import annotations

from typing import Dict, Optional

from .frontend import compile_c
from .profiler import profile_module
from .offload import CompilerOptions, NativeOffloaderCompiler, OffloadProgram
from .runtime import (FAST_WIFI, IDEAL_NETWORK, NetworkModel, OffloadSession,
                      SLOW_WIFI, SessionOptions, SessionResult, run_local)
from .targets import ARM32, ARM64, MIPS32BE, X86, X86_64
from .trace import TraceEvent, Tracer
from .workloads.base import WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "compile_c", "profile_module",
    "CompilerOptions", "NativeOffloaderCompiler", "OffloadProgram",
    "FAST_WIFI", "IDEAL_NETWORK", "NetworkModel", "OffloadSession",
    "SLOW_WIFI", "SessionOptions", "SessionResult", "run_local",
    "ARM32", "ARM64", "MIPS32BE", "X86", "X86_64",
    "TraceEvent", "Tracer",
    "WorkloadSpec", "offload_app", "__version__",
]


def offload_app(source: str,
                name: str = "app",
                stdin: bytes = b"",
                files: Optional[Dict[str, bytes]] = None,
                profile_stdin: Optional[bytes] = None,
                profile_files: Optional[Dict[str, bytes]] = None,
                network: NetworkModel = FAST_WIFI,
                compiler_options: Optional[CompilerOptions] = None,
                session_options: Optional[SessionOptions] = None
                ) -> SessionResult:
    """One-call convenience API: compile a C source, profile it, build the
    offloading-enabled partitions, and execute them over ``network``.

    ``profile_stdin``/``profile_files`` default to the evaluation inputs;
    the paper uses distinct (smaller) profiling inputs, so pass them when
    fidelity matters.
    """
    spec = WorkloadSpec(
        name=name, description="", source=source,
        profile_stdin=profile_stdin if profile_stdin is not None else stdin,
        eval_stdin=stdin,
        profile_files=(profile_files if profile_files is not None
                       else files) or {},
        eval_files=files or {})
    built = spec.build(compiler_options)
    return built.session(network, session_options).run()
