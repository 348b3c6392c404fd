"""The Native Offloader compiler pipeline (paper, Figure 2).

    unmodified IR
      -> target selection   (profile, filter, Equation 1)
      -> memory unification (UVA allocations, global realloc, layouts)
      -> partition          (mobile stubs + pruned server module)
      -> server-specific optimization (remote I/O, fn-ptr mapping)
      -> offloading-enabled mobile and server "binaries"

Memory unification's three passes and remote I/O can be disabled through
:class:`CompilerOptions` for the ablation studies in the benchmark suite;
function-pointer mapping and IR verification always run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.callgraph import CallGraph
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..profiler.profile_data import ProfileData
from ..targets.arch import TargetArch, performance_ratio
from ..targets.presets import ARM32, X86_64
from .estimator import EstimatorParams, mbps
from .filter import FunctionFilter
from .outline import outline_loop
from .partition import PartitionResult, partition
from .selector import MIN_GAIN_FRACTION, SelectionResult, TargetSelector
from .server_opt import (apply_function_pointer_mapping, apply_remote_io)
from .shard import SHARD_PREFIX, ShardSpec, analyze_shard_targets
from .unify import UnificationReport, unify_memory


# Static estimator bandwidth.  The paper's worked example assumes BW=80
# Mbps (Table 3); compilation assumes an optimistic (LAN-class) link
# because static selection only gates which targets get offloading code
# — the dynamic estimator re-decides per invocation against the live
# network, declining when it is too slow.
COMPILE_BANDWIDTH_MBPS = 1000.0


@dataclass
class CompilerOptions:
    mobile_arch: TargetArch = ARM32
    server_arch: TargetArch = X86_64
    enable_heap_replacement: bool = True
    enable_global_realloc: bool = True
    enable_layout_realignment: bool = True
    # Offload exactly these names instead of Equation 1's choice; for
    # tests/ablation.  Each must be a filter-passing candidate
    # (TargetRefused otherwise); profitability is not checked.
    forced_targets: Optional[List[str]] = None


@dataclass
class OffloadProgram:
    """Everything the runtime needs to execute an offloading-enabled app."""

    name: str
    mobile_module: Module
    server_module: Module
    partition: PartitionResult
    selection: SelectionResult
    unification: UnificationReport
    options: CompilerOptions
    profile: ProfileData
    remote_io_sites: int = 0
    fn_ptr_sites: int = 0
    # Scatter/gather support (docs/parallel-offload.md): per-target range
    # wrappers for data-parallel targets, and why the rest were refused.
    shard_specs: Dict[str, ShardSpec] = field(default_factory=dict)
    shard_refusals: Dict[str, str] = field(default_factory=dict)

    @property
    def targets(self):
        return self.partition.targets

    @property
    def outlined_loops(self) -> List[str]:
        return [t.name for t in self.partition.targets if t.kind == "loop"]

    def target_names(self) -> List[str]:
        return [t.name for t in self.partition.targets]

    def why_no_targets(self) -> str:
        """The reason nothing is offloaded, for a program whose target
        list is empty: the whole application runs on the mobile."""
        ratio = performance_ratio(self.options.server_arch,
                                  self.options.mobile_arch)
        if ratio <= 1.0:
            return (f"none — the server is not faster than the mobile "
                    f"(R = {ratio:.2f}), so Equation 1 promises no gain")
        return (f"none — no candidate's estimated gain reaches "
                f"{MIN_GAIN_FRACTION:.0%} of program time")

    def statistics(self) -> Dict[str, object]:
        """Static per-program statistics — the left half of Table 4."""
        # Generated shard wrappers are scaffolding, not program functions;
        # keeping them out preserves the Table 4 figures at any shard count.
        server_defined = sum(
            1 for f in self.server_module.defined_functions()
            if not f.name.startswith(SHARD_PREFIX))
        mobile_defined = sum(
            1 for f in self.mobile_module.defined_functions()
            if not f.name.startswith(SHARD_PREFIX))
        return {
            "program": self.name,
            "offloaded_functions": server_defined,
            "total_functions": mobile_defined,
            "referenced_globals": self.unification.uva_globals,
            "total_globals": self.unification.total_globals,
            "fn_ptr_sites": self.fn_ptr_sites,
            "remote_io_sites": self.remote_io_sites,
            "targets": self.target_names(),
        }


class NativeOffloaderCompiler:
    """Drives the full pipeline over one application module."""

    def __init__(self, options: Optional[CompilerOptions] = None):
        self.options = options or CompilerOptions()

    def compile(self, module: Module, profile: ProfileData
                ) -> OffloadProgram:
        opts = self.options
        work = module.clone(module.name)

        selection = TargetSelector(
            work, profile, self._estimator(),
            FunctionFilter(work)).select(opts.forced_targets)

        target_names: List[str] = []
        target_kinds: Dict[str, str] = {}
        for candidate in selection.selected:
            if candidate.kind == "loop":
                outline_loop(work, candidate.loop, candidate.name)
            target_names.append(candidate.name)
            target_kinds[candidate.name] = candidate.kind
        verify_module(work)

        callgraph = CallGraph(work)
        unification = unify_memory(
            work, opts.mobile_arch, opts.server_arch, target_names,
            callgraph=callgraph,
            enable_heap_replacement=opts.enable_heap_replacement,
            enable_global_realloc=opts.enable_global_realloc,
            enable_layout_realignment=opts.enable_layout_realignment)

        # Shard analysis runs on the unified module so the range wrappers
        # are cloned into *both* partitions: the server executes them, the
        # mobile replays straggler shards locally.  Wrappers are appended
        # after every existing function, keeping k=1 byte-identical.
        shard_specs, shard_refusals = analyze_shard_targets(
            work, target_names)

        result = partition(work, target_names, target_kinds,
                           server_roots=[spec.wrapper
                                         for spec in shard_specs.values()])

        remote_io_sites = apply_remote_io(result.server_module)
        fn_ptr_sites = apply_function_pointer_mapping(result.server_module)
        verify_module(result.mobile_module)
        verify_module(result.server_module)

        return OffloadProgram(
            name=module.name,
            mobile_module=result.mobile_module,
            server_module=result.server_module,
            partition=result,
            selection=selection,
            unification=unification,
            options=opts,
            profile=profile,
            remote_io_sites=remote_io_sites,
            fn_ptr_sites=fn_ptr_sites,
            shard_specs=shard_specs,
            shard_refusals=shard_refusals,
        )

    # -- helpers ----------------------------------------------------------
    def _estimator(self) -> EstimatorParams:
        return EstimatorParams(
            performance_ratio=performance_ratio(self.options.server_arch,
                                                self.options.mobile_arch),
            bandwidth_bytes_per_s=mbps(COMPILE_BANDWIDTH_MBPS))
