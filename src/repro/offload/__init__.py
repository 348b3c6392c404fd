"""The Native Offloader compiler: target selection, memory unification,
partitioning and server-specific optimization (paper, Section 3)."""

from .filter import (FilterVerdict, FunctionFilter, INTERACTIVE_IO,
                     IO_FUNCTIONS, PURE_BUILTINS)
from .estimator import Estimate, EstimatorParams, mbps
from .selector import (Candidate, SelectionResult, TargetRefused,
                       TargetSelector)
from .outline import OutliningError, can_outline, outline_loop
from .unify import (UnificationReport, reallocate_referenced_globals,
                    replace_allocation_sites, unify_memory)
from .partition import (OffloadTarget, PartitionResult, partition,
                        LOCAL_SUFFIX, OFFLOAD_PREFIX, SHOULD_OFFLOAD)
from .server_opt import (M2S_FCN_MAP, REMOTE_IO_PREFIX, S2M_FCN_MAP,
                         apply_function_pointer_mapping, apply_remote_io)
from .pipeline import CompilerOptions, NativeOffloaderCompiler, OffloadProgram

__all__ = [
    "FilterVerdict", "FunctionFilter", "INTERACTIVE_IO", "IO_FUNCTIONS",
    "PURE_BUILTINS", "Estimate", "EstimatorParams", "mbps",
    "Candidate", "SelectionResult", "TargetRefused", "TargetSelector",
    "OutliningError", "can_outline", "outline_loop",
    "UnificationReport", "reallocate_referenced_globals",
    "replace_allocation_sites", "unify_memory",
    "OffloadTarget", "PartitionResult", "partition", "OFFLOAD_PREFIX",
    "SHOULD_OFFLOAD", "LOCAL_SUFFIX",
    "M2S_FCN_MAP", "REMOTE_IO_PREFIX", "S2M_FCN_MAP",
    "apply_function_pointer_mapping", "apply_remote_io",
    "CompilerOptions", "NativeOffloaderCompiler", "OffloadProgram",
]
