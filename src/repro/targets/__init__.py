"""Target architecture descriptions and the ABI layout engine."""

from .arch import (BIG, CYCLE_TIME_SCALE, INST_CLASSES, LITTLE, TargetArch,
                   performance_ratio)
from .abi import (UNIFIED_LAYOUTS_KEY, UNIFIED_ORDER_KEY, UNIFIED_POINTER_KEY,
                  DataLayout, StructLayout, layouts_differ,
                  unified_data_layout)
from .presets import ARM32, ARM64, MIPS32BE, PRESETS, X86, X86_64, target_named

__all__ = [
    "BIG", "CYCLE_TIME_SCALE", "LITTLE", "INST_CLASSES", "TargetArch",
    "performance_ratio",
    "UNIFIED_LAYOUTS_KEY", "UNIFIED_ORDER_KEY", "UNIFIED_POINTER_KEY",
    "DataLayout", "StructLayout", "layouts_differ", "unified_data_layout",
    "ARM32", "ARM64", "MIPS32BE", "PRESETS", "X86", "X86_64", "target_named",
]
