"""Target architecture descriptions.

A :class:`TargetArch` plays the role of an LLVM back end's target
description: pointer width, endianness, ABI alignment rules and a simple
timing model (clock rate + per-instruction-class cycle counts).  The Native
Offloader compiler "achieves information about target architectures from
back-end compilers" (paper, Section 2); in this reproduction the passes
query :class:`TargetArch` objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


LITTLE = "little"
BIG = "big"

# Calibration of simulated time: one interpreted IR operation stands for a
# bundle of native instructions (the interpreter executes whole C
# statements' worth of address arithmetic, checks and libc work per IR op).
# Scaling every charged cycle by this constant puts scaled-down workloads
# into the same compute-vs-network operating regime as the paper's
# full-size SPEC runs, while leaving the mobile/server performance ratio
# untouched.
CYCLE_TIME_SCALE = 100.0

# Instruction classes used by the timing model.  The interpreter classifies
# every executed IR instruction into one of these.
INST_CLASSES = (
    "alu",        # integer arithmetic / logic / compares / casts
    "fpu",        # floating point arithmetic
    "mem",        # loads and stores
    "branch",     # control transfers
    "call",       # call / return overhead
    "div",        # integer or FP division
)


@dataclass(frozen=True)
class TargetArch:
    """Immutable description of one architecture."""

    name: str
    pointer_bytes: int              # 4 (32-bit) or 8 (64-bit)
    endianness: str                 # "little" or "big"
    clock_hz: float                 # effective core clock
    cycles: Dict[str, float] = field(default_factory=dict)
    # Maximum alignment the ABI enforces inside aggregates.  x86-32 System V
    # caps double/long-long alignment at 4, which is what makes the Figure 4
    # layouts differ between IA32 and ARM.
    max_field_align: int = 8

    def __post_init__(self):
        if self.pointer_bytes not in (4, 8):
            raise ValueError("pointer_bytes must be 4 or 8")
        if self.endianness not in (LITTLE, BIG):
            raise ValueError("endianness must be 'little' or 'big'")
        missing = [c for c in INST_CLASSES if c not in self.cycles]
        if missing:
            raise ValueError(f"timing model missing classes: {missing}")

    def __str__(self) -> str:
        return self.name


def performance_ratio(fast: TargetArch, slow: TargetArch) -> float:
    """Average single-thread performance ratio between two targets.

    This is the paper's ``R`` (they assume R = 5 between the Galaxy S5 and
    the XPS 8700; Table 1 measures 5.4-5.9x).  We estimate it from the
    timing models as the ratio of mean per-class instruction latency.
    """
    def mean_latency(arch: TargetArch) -> float:
        total = sum(arch.cycles[c] for c in INST_CLASSES)
        return total / len(INST_CLASSES) / arch.clock_hz

    return mean_latency(slow) / mean_latency(fast)
