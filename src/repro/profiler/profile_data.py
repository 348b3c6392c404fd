"""Profile data model: what the hot function/loop profiler records.

Table 3 of the paper shows the three quantities per offload candidate the
estimator consumes: execution time, invocation count and memory size.
Memory size is accounted as the set of distinct pages touched during the
candidate's (inclusive) execution — exactly the data copy-on-demand would
move, which is what Equation 1 charges for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..machine.fs import GuestOutput
from ..machine.memory import DEFAULT_PAGE_SIZE


@dataclass
class CandidateProfile:
    """Aggregated profile of one offload candidate (function or loop)."""

    name: str
    kind: str                      # "function" or "loop"
    function_name: str             # owning function (== name for functions)
    total_seconds: float = 0.0
    invocations: int = 0
    pages_touched: Set[int] = field(default_factory=set)

    @property
    def memory_bytes(self) -> int:
        return len(self.pages_touched) * DEFAULT_PAGE_SIZE

    @property
    def seconds_per_invocation(self) -> float:
        if self.invocations == 0:
            return 0.0
        return self.total_seconds / self.invocations

    def __repr__(self) -> str:
        return (f"<{self.kind} {self.name}: {self.total_seconds:.4f}s, "
                f"{self.invocations} invocations, "
                f"{self.memory_bytes / 1e6:.2f} MB>")


@dataclass
class ProfileData:
    """Complete result of one profiling run."""

    module_name: str
    arch_name: str
    program_seconds: float = 0.0
    instructions: int = 0
    candidates: Dict[str, CandidateProfile] = field(default_factory=dict)
    # What the profiled run printed and returned (None for a profile
    # built by hand).
    output: Optional[GuestOutput] = None

    def candidate(self, name: str) -> CandidateProfile:
        return self.candidates[name]

    def functions(self) -> List[CandidateProfile]:
        return [c for c in self.candidates.values() if c.kind == "function"]

    def loops(self) -> List[CandidateProfile]:
        return [c for c in self.candidates.values() if c.kind == "loop"]

    def hottest(self, top: int = 10) -> List[CandidateProfile]:
        ranked = sorted(self.candidates.values(),
                        key=lambda c: c.total_seconds, reverse=True)
        return ranked[:top]

    def coverage_of(self, name: str) -> float:
        """Fraction of whole-program time spent in a candidate."""
        if self.program_seconds <= 0:
            return 0.0
        return self.candidates[name].total_seconds / self.program_seconds
