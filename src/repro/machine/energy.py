"""Power-state model and energy accounting for the mobile device.

Replaces the Monsoon power monitor of the paper's testbed.  Section 5.2
reports the Galaxy S5 drawing roughly 300 mW idle, 1350 mW while waiting
for signals, 2000 mW receiving, and 2000-5000 mW transmitting; local
computation on the Krait cores sits near the top of that range.  Battery
consumption is the integral of state power over (simulated) time, and the
power trace over time is Figure 8's series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Default state powers in milliwatts (paper, Section 5.2).
DEFAULT_POWER_MW: Dict[str, float] = {
    "idle": 300.0,
    "compute": 3100.0,       # local CPU-bound execution
    "wait": 1350.0,          # waiting for the server during offload
    "queue": 1350.0,         # waiting for a pooled server slot (fleet)
    "receive": 2000.0,
    "transmit_fast": 2000.0,  # 802.11ac transmission draw floor
    "transmit_slow": 1700.0,  # 802.11n draws less per unit time (Fig. 8c)
    "remote_io": 2000.0,      # servicing remote I/O requests (Fig. 8b)
}
# Transmission power rises with offered load, up to ~5000 mW.
TRANSMIT_MAX_MW = 5000.0


@dataclass
class PowerInterval:
    """One homogeneous power interval of the trace."""

    start: float      # seconds
    end: float
    state: str
    power_mw: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def energy_mj(self) -> float:
        return self.power_mw * self.duration


@dataclass
class PowerTrace:
    """A timeline of power intervals; Figure 8 is a plot of this."""

    intervals: List[PowerInterval] = field(default_factory=list)

    def record(self, start: float, end: float, state: str,
               power_mw: float) -> None:
        if end < start:
            raise ValueError("interval ends before it starts")
        if end > start:
            self.intervals.append(PowerInterval(start, end, state, power_mw))

    @property
    def total_energy_mj(self) -> float:
        return sum(iv.energy_mj for iv in self.intervals)

    @property
    def duration(self) -> float:
        if not self.intervals:
            return 0.0
        return max(iv.end for iv in self.intervals)

    def sample(self, resolution: float) -> List[Tuple[float, float]]:
        """(time, power_mw) samples at a fixed resolution — the plottable
        series for Figure 8."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        samples: List[Tuple[float, float]] = []
        t = 0.0
        end = self.duration
        intervals = sorted(self.intervals, key=lambda iv: iv.start)
        while t <= end:
            power = 0.0
            for iv in intervals:
                if iv.start <= t < iv.end:
                    power = max(power, iv.power_mw)
            samples.append((t, power))
            t += resolution
        return samples

    def energy_by_state(self) -> Dict[str, float]:
        by_state: Dict[str, float] = {}
        for iv in self.intervals:
            by_state[iv.state] = by_state.get(iv.state, 0.0) + iv.energy_mj
        return by_state


class EnergyMeter:
    """Accumulates mobile-side energy as the offload session advances its
    simulated clock."""

    def __init__(self):
        self.trace = PowerTrace()

    def power_of(self, state: str) -> float:
        try:
            return DEFAULT_POWER_MW[state]
        except KeyError:
            raise KeyError(f"unknown power state {state!r}") from None

    def transmit_power(self, utilization: float, slow_network: bool) -> float:
        """Transmission draw scales with link utilization (Section 5.2:
        2000 mW to 5000 mW)."""
        utilization = min(max(utilization, 0.0), 1.0)
        floor = self.power_of(
            "transmit_slow" if slow_network else "transmit_fast")
        return floor + (TRANSMIT_MAX_MW - floor) * utilization

    def charge(self, start: float, end: float, state: str,
               power_mw: float = None) -> float:
        """Record an interval; returns the energy in mJ."""
        power = power_mw if power_mw is not None else self.power_of(state)
        self.trace.record(start, end, state, power)
        return power * (end - start)

    @property
    def total_energy_mj(self) -> float:
        return self.trace.total_energy_mj
