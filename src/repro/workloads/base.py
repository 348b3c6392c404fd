"""Workload infrastructure.

Each evaluated program is a :class:`WorkloadSpec`: a mini-C source, a
profiling input and a (larger) evaluation input — the paper stresses that
profiling and evaluation use *different* inputs — plus the paper's Table 4
row for side-by-side reporting in EXPERIMENTS.md.

The programs are scaled-down counterparts of the paper's SPEC CPU2000/2006
C benchmarks.  Each one reproduces the *structure* its original exhibits in
Table 4: which function/loop becomes the offload target, how often it is
invoked, whether it leans on function pointers, remote file input, or bulk
data traffic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..frontend.driver import compile_c
from ..ir.module import Module
from ..offload.pipeline import (CompilerOptions, NativeOffloaderCompiler,
                                OffloadProgram)
from ..profiler.profile_data import ProfileData
from ..profiler.profiler import profile_module
from ..runtime.local import LocalRunResult, run_local
from ..runtime.network import NetworkModel
from ..runtime.session import OffloadSession, SessionOptions
from ..targets.arch import TargetArch
from ..targets.presets import ARM32


@dataclass
class PaperRow:
    """The original program's Table 4 row (for reporting only)."""

    loc: str = ""
    exec_time_s: float = 0.0
    offloaded_functions: str = ""
    referenced_globals: str = ""
    fn_ptrs: int = 0
    target: str = ""
    coverage_pct: float = 0.0
    invocations: int = 0
    traffic_mb: float = 0.0


@dataclass
class WorkloadSpec:
    name: str
    description: str
    source: str
    profile_stdin: bytes = b""
    eval_stdin: bytes = b""
    profile_files: Dict[str, bytes] = field(default_factory=dict)
    eval_files: Dict[str, bytes] = field(default_factory=dict)
    # The target the paper reports for the original program.
    paper: PaperRow = field(default_factory=PaperRow)
    # Expected behaviours used by tests and EXPERIMENTS.md commentary.
    expect_offload_slow: bool = True     # offloaded on the slow network?
    comm_heavy: bool = False             # gzip/bzip2/mcf/lbm class
    remote_input_heavy: bool = False     # twolf/gobmk/h264 class
    fn_ptr_heavy: bool = False           # gobmk/sjeng/h264 class
    # Targets the compiler is told to offload instead of selecting them
    # (the built-in micro kernels); empty = Equation 1 decides.
    forced_targets: Tuple[str, ...] = ()
    _module_cache: Dict[str, Module] = field(default_factory=dict,
                                             init=False, repr=False)

    @classmethod
    def from_source(cls, source: str, name: str, stdin: bytes,
                    files: Optional[Dict[str, bytes]],
                    profile_stdin: Optional[bytes] = None,
                    profile_files: Optional[Dict[str, bytes]] = None
                    ) -> "WorkloadSpec":
        """The spec of one C source whose profiling input defaults to its
        evaluation input."""
        return cls(
            name=name, description="", source=source,
            profile_stdin=stdin if profile_stdin is None else profile_stdin,
            eval_stdin=stdin,
            profile_files=(files if profile_files is None
                           else profile_files) or {},
            eval_files=files or {})

    @property
    def loc(self) -> int:
        return self.source.count("\n") + 1

    def module(self, target: TargetArch = ARM32) -> Module:
        """Compile (cached per target) the workload to IR."""
        cached = self._module_cache.get(target.name)
        if cached is None:
            cached = compile_c(self.source, self.name, target=target)
            self._module_cache[target.name] = cached
        # Hand out clones so callers can transform freely.
        return cached.clone()

    def build(self, compiler_options: Optional[CompilerOptions] = None
              ) -> "BuiltWorkload":
        """Source -> program, the paper's Figure 2 pipeline end to end:
        compile, profile on the profiling inputs, partition.

        ``compiler_options.mobile_arch`` is the only statement of the
        mobile architecture: it is the front end's layout target, the
        machine the profile is taken on and the machine
        :meth:`BuiltWorkload.local` runs on, because the mobile layout
        rules both machines (paper, Section 3.2).
        """
        options = compiler_options or CompilerOptions()
        if self.forced_targets and options.forced_targets is None:
            options = dataclasses.replace(
                options, forced_targets=list(self.forced_targets))
        module = self.module(options.mobile_arch)
        profile = profile_module(module, arch=options.mobile_arch,
                                 stdin=self.profile_stdin,
                                 files=self.profile_files)
        program = NativeOffloaderCompiler(options).compile(module, profile)
        return BuiltWorkload(spec=self, module=module, profile=profile,
                             program=program)


@dataclass
class BuiltWorkload:
    """What :meth:`WorkloadSpec.build` produced: the unpartitioned
    module, its profile and the offloading-enabled program, plus the two
    ways to execute them on the spec's evaluation inputs."""

    spec: WorkloadSpec
    module: Module
    profile: ProfileData
    program: OffloadProgram

    def local(self) -> LocalRunResult:
        """Phone-only execution of the unpartitioned module — the oracle
        every offloaded run is compared against."""
        return run_local(self.module,
                         arch=self.program.options.mobile_arch,
                         stdin=self.spec.eval_stdin,
                         files=self.spec.eval_files)

    def session(self, network: NetworkModel,
                options: Optional[SessionOptions] = None) -> OffloadSession:
        """An offload session over ``network``, not yet run."""
        return OffloadSession(self.program, network, options=options,
                              stdin=self.spec.eval_stdin,
                              files=self.spec.eval_files)
