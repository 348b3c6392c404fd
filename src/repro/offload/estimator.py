"""Equation 1 (paper, Section 3.1): the static performance estimator,
and the one formula the dynamic estimator re-evaluates per invocation.

    Tg = (Tm - Ts) - Tc  =  Tm * (1 - 1/R)  -  2 * (M / BW) * Ninvo

where Tm is mobile execution time of the candidate, R the average
server/mobile performance ratio, M the memory the task uses, BW the network
bandwidth, and Ninvo the invocation count.  Shared data crosses the network
twice per invocation (live-ins out, dirty data back), hence the factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..profiler.profile_data import CandidateProfile


class Estimate(NamedTuple):
    """Equation 1 evaluated once — the Table 3 columns at compile time,
    one invocation's prediction at run time (an immutable tuple)."""

    t_mobile: float          # Tm: mobile execution time priced
    memory_bytes: float      # M: shared data one invocation moves
    bandwidth: float         # BW, bytes/s
    invocations: int         # Ninvo
    t_ideal: float           # Tm * (1 - 1/R): the compute the server saves
    t_comm: float            # Tc: 2 * M/BW * Ninvo, the traffic that costs
    # Expected server-pool queueing delay (0 outside fleet runs and at
    # compile time): waiting for a slot costs the mobile exactly like
    # waiting on the link does.
    t_queue: float = 0.0

    @property
    def gain(self) -> float:
        return self.t_ideal - self.t_comm - self.t_queue


def equation1(t_mobile: float, ratio: float, memory_bytes: float,
              bandwidth: float, invocations: int = 1,
              t_queue: float = 0.0) -> Estimate:
    """Equation 1 at ratio ``ratio``: the static estimator prices every
    profiled invocation, the dynamic one the next invocation alone."""
    return Estimate(t_mobile, memory_bytes, bandwidth, invocations,
                    t_mobile * (1.0 - 1.0 / ratio),
                    2.0 * memory_bytes / bandwidth * invocations, t_queue)


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

    def estimate(self, profile: CandidateProfile) -> Estimate:
        """The static estimator: Equation 1 over a candidate's profile."""
        return equation1(profile.total_seconds, self.performance_ratio,
                         profile.memory_bytes, self.bandwidth_bytes_per_s,
                         profile.invocations)


def mbps(megabits_per_second: float) -> float:
    """Convert Mbit/s (the unit the paper quotes) to bytes/s."""
    return megabits_per_second * 1e6 / 8.0
