"""Evaluated workloads: the 17 SPEC-like C programs of Table 4, the
paper's chess running example, the two built-in micro kernels, and the
Table 2 Android-app survey data."""

from .base import BuiltWorkload, PaperRow, WorkloadSpec
from .registry import (ALL_WORKLOADS, MICRO_WORKLOADS, SPEC_WORKLOADS,
                       WORKLOADS, spec_names, workload)
from .chess import CHESS, CHESS_SRC, chess_stdin
from .micro import FLEET_MICRO, PARALLEL_MICRO
from .android_apps import (AndroidApp, TOP20_APPS,
                           apps_with_heavy_native_runtime,
                           apps_with_majority_native_code, survey_summary)

__all__ = [
    "BuiltWorkload", "PaperRow", "WorkloadSpec",
    "ALL_WORKLOADS", "MICRO_WORKLOADS", "SPEC_WORKLOADS", "WORKLOADS",
    "spec_names", "workload",
    "CHESS", "CHESS_SRC", "chess_stdin",
    "FLEET_MICRO", "PARALLEL_MICRO",
    "AndroidApp", "TOP20_APPS", "apps_with_heavy_native_runtime",
    "apps_with_majority_native_code", "survey_summary",
]
