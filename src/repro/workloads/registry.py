"""Registry of all evaluated workloads, in the paper's Table 4 order."""

from __future__ import annotations

from typing import Dict, List

from .base import WorkloadSpec
from .compression import BZIP2, GZIP
from .scientific import AMMP, ART, EQUAKE, LBM, MILC
from .combinatorial import MCF, TWOLF, VPR
from .games import GOBMK, SJENG
from .media import H264REF, MESA, SPHINX3
from .sequence import HMMER, LIBQUANTUM
from .chess import CHESS
from .micro import FLEET_MICRO, PARALLEL_MICRO

# The 17 SPEC programs of Table 4, in the paper's order.
SPEC_WORKLOADS: List[WorkloadSpec] = [
    GZIP, VPR, MESA, ART, EQUAKE, AMMP, TWOLF, BZIP2, MCF, MILC,
    GOBMK, HMMER, SJENG, LIBQUANTUM, H264REF, LBM, SPHINX3,
]

ALL_WORKLOADS: List[WorkloadSpec] = SPEC_WORKLOADS + [CHESS]

# Reachable by name like any other, but not part of the evaluated suite:
# tables, figures and the parametrised suite tests walk ALL_WORKLOADS.
MICRO_WORKLOADS: List[WorkloadSpec] = [FLEET_MICRO, PARALLEL_MICRO]

WORKLOADS: Dict[str, WorkloadSpec] = {
    w.name: w for w in ALL_WORKLOADS + MICRO_WORKLOADS}


def workload(name: str) -> WorkloadSpec:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None


def spec_names() -> List[str]:
    return [w.name for w in SPEC_WORKLOADS]
