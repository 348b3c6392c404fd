"""Static performance estimator (paper, Section 3.1, Equation 1).

    Tg = (Tm - Ts) - Tc  =  Tm * (1 - 1/R)  -  2 * (M / BW) * Ninvo

where Tm is mobile execution time of the candidate, R the average
server/mobile performance ratio, M the memory the task uses, BW the network
bandwidth, and Ninvo the invocation count.  Shared data crosses the network
twice per invocation (live-ins out, dirty data back), hence the factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..profiler.profile_data import CandidateProfile


def equation1(t_mobile: float, ratio: float, memory_bytes: float,
              bandwidth_bytes_per_s: float,
              invocations: int = 1) -> Tuple[float, float]:
    """Equation 1's two terms, ``(Tm * (1 - 1/R), 2 * M/BW * Ninvo)``:
    the compute the server saves and the traffic that costs.  The static
    estimator prices every profiled invocation, the dynamic one the next
    invocation alone."""
    return (t_mobile * (1.0 - 1.0 / ratio),
            2.0 * memory_bytes / bandwidth_bytes_per_s * invocations)


@dataclass(frozen=True)
class EstimatorParams:
    """Environment assumptions of the static estimator."""

    performance_ratio: float        # R
    bandwidth_bytes_per_s: float    # BW

    def __post_init__(self):
        # R <= 1 (a server no faster than the mobile) is a legal
        # environment: Equation 1 then promises a negative gain and
        # nothing is selected.  Only a ratio the formula cannot divide
        # by is refused (NaN fails the comparison too).
        if not self.performance_ratio > 0.0:
            raise ValueError("performance ratio must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass
class StaticEstimate:
    """Per-candidate output of the estimator — the Table 3 columns."""

    name: str
    t_mobile: float          # Tm: profiled mobile execution time
    t_ideal: float           # Tm * (1 - 1/R): ideal gain
    t_comm: float            # Tc: 2 * M/BW * Ninvo
    invocations: int
    memory_bytes: int

    @property
    def t_gain(self) -> float:
        return self.t_ideal - self.t_comm

    @property
    def profitable(self) -> bool:
        return self.t_gain > 0


class StaticPerformanceEstimator:
    def __init__(self, params: EstimatorParams):
        self.params = params

    def estimate(self, profile: CandidateProfile) -> StaticEstimate:
        t_ideal, t_comm = equation1(
            profile.total_seconds, self.params.performance_ratio,
            profile.memory_bytes, self.params.bandwidth_bytes_per_s,
            profile.invocations)
        return StaticEstimate(
            name=profile.name,
            t_mobile=profile.total_seconds,
            t_ideal=t_ideal,
            t_comm=t_comm,
            invocations=profile.invocations,
            memory_bytes=profile.memory_bytes,
        )


def mbps(megabits_per_second: float) -> float:
    """Convert Mbit/s (the unit the paper quotes) to bytes/s."""
    return megabits_per_second * 1e6 / 8.0
