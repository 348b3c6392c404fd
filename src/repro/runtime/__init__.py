"""The Native Offloader runtime: UVA sharing, communication, dynamic
estimation and the offload session life cycle (paper, Section 4)."""

from .network import (CLOUD_WAN, FAST_WIFI, FaultPlan, IDEAL_NETWORK,
                      Link, LinkAttempt, MESSAGE_HEADER_BYTES, NETWORKS,
                      NO_FAULTS, NetworkModel, SLOW_WIFI)
from .transport import (LinkDownError, RetryPolicy, Transport,
                        TransportError, TransportStats)
from .comm import (CommStats, CommunicationManager, TransferResult,
                   COMPRESS_CYCLES_PER_BYTE, DECOMPRESS_CYCLES_PER_BYTE,
                   DELTA_RECORD_HEADER_BYTES, delta_records_size,
                   encode_delta_records)
from .fcn_table import (FunctionAddressTable, MAP_LOOKUP_CYCLES,
                        UnmappableFunctionPointer)
from .uva import PrefetchAdvisor, UVAManager, UVAStats
from .dynamic_estimator import DynamicPerformanceEstimator, TargetRuntimeState
from .backend import (Admission, DirectDispatcher, InvocationRecord,
                      OffloadDispatcher, Rejection, RemoteBackend)
from .session import OffloadSession, SessionOptions, SessionResult
from .local import LocalRunResult, run_local

__all__ = [
    "CLOUD_WAN", "FAST_WIFI", "IDEAL_NETWORK", "NETWORKS",
    "NetworkModel", "SLOW_WIFI",
    "FaultPlan", "Link", "LinkAttempt", "NO_FAULTS",
    "LinkDownError", "RetryPolicy", "Transport", "TransportError",
    "TransportStats",
    "CommStats", "CommunicationManager", "TransferResult",
    "COMPRESS_CYCLES_PER_BYTE", "DECOMPRESS_CYCLES_PER_BYTE",
    "DELTA_RECORD_HEADER_BYTES", "MESSAGE_HEADER_BYTES",
    "delta_records_size", "encode_delta_records",
    "FunctionAddressTable", "MAP_LOOKUP_CYCLES",
    "UnmappableFunctionPointer",
    "PrefetchAdvisor", "UVAManager", "UVAStats",
    "DynamicPerformanceEstimator", "TargetRuntimeState",
    "Admission", "DirectDispatcher", "OffloadDispatcher", "Rejection",
    "RemoteBackend",
    "InvocationRecord", "OffloadSession", "SessionOptions", "SessionResult",
    "LocalRunResult", "run_local",
]
